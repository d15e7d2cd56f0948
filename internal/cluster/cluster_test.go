package cluster

import (
	"testing"
	"testing/quick"

	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

func smallConfig(t *testing.T, tp, pp, dp, mb int) parallel.Config {
	t.Helper()
	m, err := topology.NewMapping(tp, pp, dp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = mb
	return cfg
}

func runSmall(t *testing.T, tp, pp, dp, mb int, seed uint64) *trace.Multi {
	t.Helper()
	cfg := smallConfig(t, tp, pp, dp, mb)
	out, err := Run(cfg, DefaultSimConfig(cfg.Map.WorldSize(), seed))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunProducesValidTraces(t *testing.T) {
	out := runSmall(t, 2, 2, 2, 4, 1)
	if out.NumRanks() != 8 {
		t.Fatalf("ranks = %d", out.NumRanks())
	}
	for _, tr := range out.Ranks {
		if len(tr.Events) == 0 {
			t.Fatalf("rank %d empty", tr.Rank)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("rank %d: %v", tr.Rank, err)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runSmall(t, 2, 2, 1, 4, 7)
	b := runSmall(t, 2, 2, 1, 4, 7)
	if a.Duration() != b.Duration() {
		t.Fatalf("same seed, different makespan: %d vs %d", a.Duration(), b.Duration())
	}
	if a.Events() != b.Events() {
		t.Fatalf("same seed, different event count")
	}
	for r := range a.Ranks {
		for i := range a.Ranks[r].Events {
			ea, eb := a.Ranks[r].Events[i], b.Ranks[r].Events[i]
			if ea.Ts != eb.Ts || ea.Dur != eb.Dur || ea.Name != eb.Name {
				t.Fatalf("rank %d event %d differs", r, i)
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := runSmall(t, 2, 2, 1, 4, 7)
	b := runSmall(t, 2, 2, 1, 4, 8)
	if a.Duration() == b.Duration() {
		t.Fatal("different seeds should perturb the makespan")
	}
	// But not by much: jitter is a few percent.
	ra := float64(a.Duration()) / float64(b.Duration())
	if ra < 0.8 || ra > 1.2 {
		t.Fatalf("seed change moved makespan by %.1f%%", 100*(ra-1))
	}
}

func TestStreamFIFO(t *testing.T) {
	out := runSmall(t, 2, 2, 1, 4, 3)
	for _, tr := range out.Ranks {
		last := map[int]trace.Time{} // stream → last end
		// Events are sorted by Ts; FIFO means kernel starts are
		// non-decreasing per stream and never overlap within a stream.
		for i := range tr.Events {
			e := &tr.Events[i]
			if !e.IsGPU() {
				continue
			}
			if e.Ts < last[e.TID] {
				t.Fatalf("rank %d stream %d: kernel starts at %d before previous end %d",
					tr.Rank, e.TID, e.Ts, last[e.TID])
			}
			last[e.TID] = e.End()
		}
	}
}

func TestCollectiveCoherence(t *testing.T) {
	out := runSmall(t, 2, 2, 2, 4, 5)
	type key struct{ id, seq int64 }
	ends := map[key][]trace.Time{}
	counts := map[key]int{}
	for _, tr := range out.Ranks {
		for i := range tr.Events {
			e := &tr.Events[i]
			if e.IsComm() {
				k := key{e.CommID, e.CommSeq}
				ends[k] = append(ends[k], e.End())
				counts[k]++
			}
		}
	}
	if len(ends) == 0 {
		t.Fatal("no collectives in a TP2/PP2/DP2 run")
	}
	for k, es := range ends {
		for _, e := range es[1:] {
			if e != es[0] {
				t.Fatalf("collective %v members end at different times: %v", k, es)
			}
		}
		if counts[k] < 2 {
			t.Fatalf("collective %v has %d members", k, counts[k])
		}
	}
}

func TestCorrelationsLinkLaunchesToKernels(t *testing.T) {
	out := runSmall(t, 2, 1, 1, 4, 9)
	tr := out.Ranks[0]
	launches := map[int64]bool{}
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Cat == trace.CatCUDARuntime && e.Runtime == trace.RuntimeLaunchKernel {
			launches[e.Correlation] = true
		}
	}
	kernels := 0
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Cat == trace.CatKernel {
			kernels++
			if !launches[e.Correlation] {
				t.Fatalf("kernel %q correlation %d has no launch", e.Name, e.Correlation)
			}
		}
	}
	if kernels == 0 {
		t.Fatal("no kernels")
	}
}

func TestKernelAfterLaunch(t *testing.T) {
	out := runSmall(t, 2, 2, 1, 4, 11)
	for _, tr := range out.Ranks {
		launchEnd := map[int64]trace.Time{}
		for i := range tr.Events {
			e := &tr.Events[i]
			if e.Cat == trace.CatCUDARuntime && e.Runtime == trace.RuntimeLaunchKernel {
				launchEnd[e.Correlation] = e.End()
			}
		}
		for i := range tr.Events {
			e := &tr.Events[i]
			if e.Cat != trace.CatKernel {
				continue
			}
			if le, ok := launchEnd[e.Correlation]; ok && e.Ts < le {
				t.Fatalf("rank %d: kernel %q starts at %d before its launch ends at %d",
					tr.Rank, e.Name, e.Ts, le)
			}
		}
	}
}

func TestDeviceSyncCoversAllStreams(t *testing.T) {
	out := runSmall(t, 2, 2, 1, 4, 13)
	for _, tr := range out.Ranks {
		var syncEnd trace.Time = -1
		for i := range tr.Events {
			e := &tr.Events[i]
			if e.Runtime == trace.RuntimeDeviceSynchronize {
				if e.End() > syncEnd {
					syncEnd = e.End()
				}
			}
		}
		if syncEnd < 0 {
			t.Fatalf("rank %d has no cudaDeviceSynchronize", tr.Rank)
		}
		for i := range tr.Events {
			e := &tr.Events[i]
			if e.IsGPU() && e.End() > syncEnd {
				t.Fatalf("rank %d: kernel %q ends at %d after device sync at %d",
					tr.Rank, e.Name, e.End(), syncEnd)
			}
		}
	}
}

func TestGPipeRuns(t *testing.T) {
	cfg := smallConfig(t, 2, 2, 1, 4)
	cfg.Schedule = parallel.GPipe
	out, err := Run(cfg, DefaultSimConfig(cfg.Map.WorldSize(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Duration() <= 0 {
		t.Fatal("no makespan")
	}
}

func TestSyncAfterRecvVariant(t *testing.T) {
	cfg := smallConfig(t, 2, 2, 1, 4)
	cfg.SyncAfterRecv = true
	out, err := Run(cfg, DefaultSimConfig(cfg.Map.WorldSize(), 1))
	if err != nil {
		t.Fatal(err)
	}
	// The gated variant must contain per-slot stream synchronizes.
	syncs := 0
	for i := range out.Ranks[2].Events {
		if out.Ranks[2].Events[i].Runtime == trace.RuntimeStreamSynchronize {
			syncs++
		}
	}
	if syncs < cfg.Microbatches {
		t.Fatalf("gated pipeline should stream-sync per microbatch, saw %d", syncs)
	}
}

func TestLaunchQueueBackpressure(t *testing.T) {
	cfg := smallConfig(t, 2, 1, 1, 4)
	// Tiny queue: CPU must repeatedly block, but the run must still finish
	// with the same kernel count.
	sc := DefaultSimConfig(cfg.Map.WorldSize(), 1)
	sc.LaunchQueueDepth = 4
	out, err := Run(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	sc2 := DefaultSimConfig(cfg.Map.WorldSize(), 1)
	sc2.LaunchQueueDepth = 0 // disabled
	out2, err := Run(cfg, sc2)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := 0, 0
	for i := range out.Ranks[0].Events {
		if out.Ranks[0].Events[i].Cat == trace.CatKernel {
			k1++
		}
	}
	for i := range out2.Ranks[0].Events {
		if out2.Ranks[0].Events[i].Cat == trace.CatKernel {
			k2++
		}
	}
	if k1 != k2 || k1 == 0 {
		t.Fatalf("kernel counts differ under backpressure: %d vs %d", k1, k2)
	}
}

func TestWorldSizeCheck(t *testing.T) {
	cfg := smallConfig(t, 2, 2, 2, 4)
	sc := DefaultSimConfig(4, 1) // too few GPUs for world=8
	if _, err := Run(cfg, sc); err == nil {
		t.Fatal("undersized cluster must be rejected")
	}
}

func TestPropertyMakespanDominatesRanks(t *testing.T) {
	// Global duration is the max across ranks, and every rank's span is
	// positive — for arbitrary small deployments.
	f := func(tpSel, ppSel, dpSel, mbSel uint8) bool {
		tp := 1 << (tpSel % 2) // 1..2
		pp := 1 << (ppSel % 2) // 1..2
		dp := 1 + int(dpSel%2) // 1..2
		mb := pp * (2 + int(mbSel%2))
		m, err := topology.NewMapping(tp, pp, dp)
		if err != nil {
			return false
		}
		cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
		cfg.Microbatches = mb
		out, err := Run(cfg, DefaultSimConfig(m.WorldSize(), 99))
		if err != nil {
			return false
		}
		max := int64(0)
		for _, tr := range out.Ranks {
			d := tr.Duration()
			if d <= 0 {
				return false
			}
			if d > max {
				max = d
			}
		}
		return out.Duration() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestInvalidFabricRejected verifies fabric validation threads through the
// substrate: a malformed fabric fails Run at construction instead of
// producing silent nonsense collective costs.
func TestInvalidFabricRejected(t *testing.T) {
	cfg := smallConfig(t, 2, 2, 1, 2)
	sc := DefaultSimConfig(cfg.Map.WorldSize(), 1)
	sc.Fabric = topology.HierFabric{Name: "slow", NumGPUs: 12, Levels: []topology.Level{{GPUs: 8, BW: 1}, {BW: 1}}}
	if _, err := Run(cfg, sc); err == nil {
		t.Fatal("fabric with links below the bandwidth floor must be rejected")
	}
	sc = DefaultSimConfig(cfg.Map.WorldSize(), 1)
	sc.Fabric = nil
	if _, err := Run(cfg, sc); err == nil {
		t.Fatal("nil fabric must be rejected")
	}
	sc = DefaultSimConfig(cfg.Map.WorldSize(), 1)
	sc.Fabric = topology.HierFabric{Name: "bad", NumGPUs: 8, Levels: []topology.Level{{GPUs: 8, BW: -1}}}
	if _, err := Run(cfg, sc); err == nil {
		t.Fatal("negative-bandwidth fabric must be rejected")
	}
}

func TestSequenceParallelGroundTruth(t *testing.T) {
	// Sequence parallelism swaps each TP all-reduce for an all-gather +
	// reduce-scatter pair: the same bus traffic (so roughly equal comm
	// time) split across twice as many kernels, while the norm/dropout
	// kernels shrink by 1/TP. The end-to-end iteration must not regress.
	m, err := topology.NewMapping(4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = 4

	tpStats := func(mult *trace.Multi) (busy trace.Dur, count int) {
		for i := range mult.Ranks[0].Events {
			e := &mult.Ranks[0].Events[i]
			if e.IsComm() && e.TID == StreamIDs[model.StreamTPComm] {
				busy += e.Dur
				count++
			}
		}
		return
	}
	normBytes := func(mult *trace.Multi) int64 {
		var b int64
		for i := range mult.Ranks[0].Events {
			e := &mult.Ranks[0].Events[i]
			if e.Cat == trace.CatKernel && e.Class == trace.KCNorm {
				b += e.Bytes
			}
		}
		return b
	}

	plain, err := Run(cfg, DefaultSimConfig(m.WorldSize(), 23))
	if err != nil {
		t.Fatal(err)
	}
	spCfg := cfg
	spCfg.SequenceParallel = true
	sp, err := Run(spCfg, DefaultSimConfig(m.WorldSize(), 23))
	if err != nil {
		t.Fatal(err)
	}

	pBusy, pCount := tpStats(plain)
	sBusy, sCount := tpStats(sp)
	// Per-layer collectives double (AG+RS per former AR); the embedding and
	// loss all-reduces are unchanged, so the ratio sits just under 2.
	cr := float64(sCount) / float64(pCount)
	if cr < 1.8 || cr > 2.05 {
		t.Fatalf("SP TP kernel count %d vs %d (ratio %.2f), want ~2x", sCount, pCount, cr)
	}
	ratio := float64(sBusy) / float64(pBusy)
	if ratio < 0.8 || ratio > 1.3 {
		t.Fatalf("SP TP busy should be within ~25%% of the AR variant, ratio %.2f", ratio)
	}
	if normBytes(sp) >= normBytes(plain) {
		t.Fatalf("SP must shrink norm traffic: %d vs %d", normBytes(sp), normBytes(plain))
	}
	if float64(sp.Duration()) > 1.1*float64(plain.Duration()) {
		t.Fatalf("SP regressed the iteration: %d vs %d", sp.Duration(), plain.Duration())
	}
}

package kernelmodel

import (
	"testing"
	"testing/quick"

	"lumos/internal/topology"
	"lumos/internal/trace"
)

func oracle() *Oracle { return NewOracleFabric(topology.H100Cluster(64)) }

func TestOracleGEMMThroughput(t *testing.T) {
	o := oracle()
	// A large GEMM should land within a plausible efficiency band:
	// the model cannot beat peak, and big GEMMs should exceed 30% of peak.
	flops := int64(2) * 4096 * 4096 * 4096
	bytes := int64(3 * 4096 * 4096 * 2)
	d := o.Compute(trace.KCGEMM, flops, bytes)
	achieved := float64(flops) / (float64(d) / 1e9)
	if achieved > o.PeakFLOPs {
		t.Fatalf("achieved %.0f TFLOP/s beats peak", achieved/1e12)
	}
	if achieved < 0.3*o.PeakFLOPs {
		t.Fatalf("achieved %.0f TFLOP/s unrealistically low for a 4k³ GEMM", achieved/1e12)
	}
}

func TestOracleMemoryBound(t *testing.T) {
	o := oracle()
	// A layernorm moving 100 MB must be bandwidth-limited: no faster than
	// bytes / HBM peak.
	bytes := int64(100 << 20)
	d := o.Compute(trace.KCNorm, 0, bytes)
	floor := float64(bytes) / o.HBMBW * 1e9
	if float64(d) < floor {
		t.Fatalf("norm kernel %.1fus beats the HBM floor %.1fus", float64(d)/1e3, floor/1e3)
	}
}

func TestOracleSmallKernelOverhead(t *testing.T) {
	o := oracle()
	d := o.Compute(trace.KCElementwise, 0, 16)
	if float64(d) < o.KernelOverhead {
		t.Fatalf("tiny kernel %.0fns under the launch overhead %.0fns", float64(d), o.KernelOverhead)
	}
}

func TestOracleMonotone(t *testing.T) {
	o := oracle()
	f := func(flopSel, byteSel uint32) bool {
		fl := int64(flopSel%1e6) * 1e6
		by := int64(byteSel % 1e8)
		return o.Compute(trace.KCGEMM, 2*fl, by) >= o.Compute(trace.KCGEMM, fl, by) &&
			o.Compute(trace.KCNorm, 0, 2*by) >= o.Compute(trace.KCNorm, 0, by)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// synthTraces builds a multi-rank trace with kernels priced by a known
// generator, to verify the fit recovers it.
func synthTraces(o *Oracle, c topology.Fabric) *trace.Multi {
	m := trace.NewMulti(4)
	corr := int64(1)
	addCompute := func(rank int, class trace.KernelClass, flops, bytes int64) {
		d := o.Compute(class, flops, bytes)
		m.Ranks[rank].Add(trace.Event{
			Name: "k", Cat: trace.CatKernel, Ts: corr * 1000, Dur: d,
			PID: rank, TID: 7, Correlation: corr, Stream: 7,
			Class: class, FLOPs: flops, Bytes: bytes, PeerRank: -1, Layer: -1, Microbatch: -1,
		})
		corr++
	}
	addAR := func(seq int64, bytes int64, ranks []int) {
		d := o.Comm(trace.CommAllReduce, bytes, ranks)
		for _, r := range ranks {
			m.Ranks[r].Add(trace.Event{
				Name: "ncclDevKernel_AllReduce", Cat: trace.CatKernel,
				Ts: seq * 5000, Dur: d, PID: r, TID: 20, Correlation: corr, Stream: 20,
				Class: trace.KCComm, Comm: trace.CommAllReduce,
				CommID: 1, CommSeq: seq, CommBytes: bytes, PeerRank: -1, Layer: -1, Microbatch: -1,
			})
			corr++
		}
	}
	for i := int64(1); i <= 40; i++ {
		addCompute(int(i%4), trace.KCGEMM, i*5e9, i*1e6)
		addCompute(int(i%4), trace.KCNorm, 0, i*3e6)
	}
	group := []int{0, 1, 2, 3}
	for i := int64(1); i <= 30; i++ {
		addAR(i, i*1<<20, group)
	}
	return m
}

func TestFitRecoversGenerator(t *testing.T) {
	c := topology.H100Cluster(8)
	o := NewOracleFabric(c)
	m := synthTraces(o, c)
	fit, err := Fit([]*trace.Multi{m}, c, o)
	if err != nil {
		t.Fatal(err)
	}
	if nc, nm := len(fit.compute), len(fit.comm); nc < 2 || nm < 1 {
		t.Fatalf("families: compute=%d comm=%d", nc, nm)
	}
	// In-sample prediction should be close for interpolation points.
	for _, probe := range []struct {
		flops, bytes int64
	}{
		{20 * 5e9, 20 * 1e6},
		{35 * 5e9, 35 * 1e6},
	} {
		want := o.Compute(trace.KCGEMM, probe.flops, probe.bytes)
		got := fit.Compute(trace.KCGEMM, probe.flops, probe.bytes)
		rel := float64(got-want) / float64(want)
		if rel < -0.2 || rel > 0.2 {
			t.Fatalf("fit GEMM(%d, %d) = %d, oracle %d (%.1f%%)", probe.flops, probe.bytes, got, want, 100*rel)
		}
	}
	// Comm: interpolation at a seen size.
	want := o.Comm(trace.CommAllReduce, 15<<20, []int{0, 1, 2, 3})
	got := fit.Comm(trace.CommAllReduce, 15<<20, []int{0, 1, 2, 3})
	rel := float64(got-want) / float64(want)
	if rel < -0.25 || rel > 0.25 {
		t.Fatalf("fit AR = %d, oracle %d (%.1f%%)", got, want, 100*rel)
	}
}

func TestFitExtrapolatesGroupSize(t *testing.T) {
	// The alpha-beta structure lets the fit predict an 8-rank collective
	// from 4-rank samples; the ring coefficient does the extrapolation.
	c := topology.H100Cluster(8)
	o := NewOracleFabric(c)
	m := synthTraces(o, c)
	fit, err := Fit([]*trace.Multi{m}, c, o)
	if err != nil {
		t.Fatal(err)
	}
	big := []int{0, 1, 2, 3, 4, 5, 6, 7}
	want := o.Comm(trace.CommAllReduce, 32<<20, big)
	got := fit.Comm(trace.CommAllReduce, 32<<20, big)
	rel := float64(got-want) / float64(want)
	if rel < -0.35 || rel > 0.35 {
		t.Fatalf("extrapolated AR(n=8) = %d, oracle %d (%.1f%%)", got, want, 100*rel)
	}
}

func TestFitFallsBackForUnseenFamilies(t *testing.T) {
	c := topology.H100Cluster(8)
	o := NewOracleFabric(c)
	m := synthTraces(o, c)
	fit, err := Fit([]*trace.Multi{m}, c, o)
	if err != nil {
		t.Fatal(err)
	}
	// Attention was never sampled → must fall back to the oracle exactly.
	want := o.Compute(trace.KCAttention, 1e12, 1e8)
	if got := fit.Compute(trace.KCAttention, 1e12, 1e8); got != want {
		t.Fatalf("fallback compute = %d, oracle %d", got, want)
	}
	want = o.Comm(trace.CommAllToAll, 1<<20, []int{0, 1})
	if got := fit.Comm(trace.CommAllToAll, 1<<20, []int{0, 1}); got != want {
		t.Fatalf("fallback comm = %d, oracle %d", got, want)
	}
}

func TestFitWithNoFallback(t *testing.T) {
	c := topology.H100Cluster(8)
	m := synthTraces(NewOracleFabric(c), c)
	fit, err := Fit([]*trace.Multi{m}, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fit.Compute(trace.KCAttention, 1e12, 1e8) <= 0 {
		t.Fatal("nil fallback must still return a positive duration")
	}
	if fit.Comm(trace.CommAllToAll, 1<<20, []int{0, 1}) <= 0 {
		t.Fatal("nil fallback comm must still return a positive duration")
	}
}

func TestPayloadCoef(t *testing.T) {
	if payloadCoef(trace.CommAllReduce, 1) != 0 {
		t.Fatal("n=1 has no payload motion")
	}
	if payloadCoef(trace.CommAllReduce, 2) != 1 {
		t.Fatal("AR n=2 coefficient should be 1")
	}
	if payloadCoef(trace.CommSend, 4) != 1 {
		t.Fatal("p2p coefficient is 1")
	}
	// AR moves twice what AG moves.
	if payloadCoef(trace.CommAllReduce, 8) != 2*payloadCoef(trace.CommAllGather, 8) {
		t.Fatal("AR/AG coefficient ratio should be 2")
	}
}

func TestSolve3(t *testing.T) {
	// 3x3 system with known solution (1, 2, 3).
	m := [3][3]float64{{2, 1, 1}, {1, 3, 2}, {1, 0, 0}}
	v := [3]float64{2*1 + 2 + 3, 1 + 6 + 6, 1}
	x, ok := solve3(m, v)
	if !ok {
		t.Fatal("singular?")
	}
	for i, want := range []float64{1, 2, 3} {
		if diff := x[i] - want; diff < -1e-9 || diff > 1e-9 {
			t.Fatalf("x = %v", x)
		}
	}
	sing := [3][3]float64{{1, 1, 1}, {1, 1, 1}, {1, 1, 1}}
	if _, ok := solve3(sing, [3]float64{1, 1, 1}); ok {
		t.Fatal("singular matrix must be rejected")
	}
}

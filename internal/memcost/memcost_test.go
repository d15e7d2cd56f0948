package memcost

import (
	"testing"

	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/schedule"
	"lumos/internal/topology"
)

func cfg(t *testing.T, arch model.Arch, tp, pp, dp, mb int) parallel.Config {
	t.Helper()
	m, err := topology.NewMapping(tp, pp, dp)
	if err != nil {
		t.Fatal(err)
	}
	c := parallel.DefaultConfig(arch, m)
	c.Microbatches = mb
	return c
}

func estimate(t *testing.T, m Model, c parallel.Config) Estimate {
	t.Helper()
	e, err := m.Estimate(c)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEstimateComponents(t *testing.T) {
	c := cfg(t, model.GPT3_15B(), 2, 2, 1, 4)
	e := estimate(t, Model{}, c)

	// Stage 0 carries the embedding, so it is the peak stage.
	if e.Stage != 0 {
		t.Fatalf("peak stage %d, want 0", e.Stage)
	}
	params := c.LocalParams(0)
	if want := params * int64(c.Arch.DTypeBytes); e.Weights != want {
		t.Fatalf("weights %d, want %d", e.Weights, want)
	}
	if want := params * 12; e.Optimizer != want {
		t.Fatalf("optimizer %d, want %d (12 B/param Adam)", e.Optimizer, want)
	}
	if e.Activations <= 0 || e.Gradients <= 0 {
		t.Fatalf("degenerate estimate %+v", e)
	}
	if e.Total() != e.Weights+e.Gradients+e.Optimizer+e.Activations {
		t.Fatal("Total does not sum components")
	}
}

func TestZeROShardingMonotone(t *testing.T) {
	c := cfg(t, model.GPT3_15B(), 2, 1, 8, 4)
	none := estimate(t, Model{ZeRO: ZeRONone}, c)
	z1 := estimate(t, Model{ZeRO: ZeROOptimizer}, c)
	z2 := estimate(t, Model{ZeRO: ZeROGradients}, c)

	if !(z2.Total() < z1.Total() && z1.Total() < none.Total()) {
		t.Fatalf("sharding must shrink the footprint: none=%d z1=%d z2=%d",
			none.Total(), z1.Total(), z2.Total())
	}
	// ZeRO-1 shards exactly the optimizer states across DP=8.
	if want := (none.Optimizer + 7) / 8; z1.Optimizer != want {
		t.Fatalf("zero1 optimizer %d, want %d", z1.Optimizer, want)
	}
	if z1.Gradients != none.Gradients {
		t.Fatal("zero1 must not shard gradients")
	}
	if want := (none.Gradients + 7) / 8; z2.Gradients != want {
		t.Fatalf("zero2 gradients %d, want %d", z2.Gradients, want)
	}

	// DP=1 has nothing to shard: stages are identical.
	c1 := cfg(t, model.GPT3_15B(), 2, 1, 1, 4)
	if a, b := estimate(t, Model{ZeRO: ZeRONone}, c1), estimate(t, Model{ZeRO: ZeROGradients}, c1); a.Total() != b.Total() {
		t.Fatal("ZeRO must be a no-op at DP=1")
	}
}

func TestActivationPressureTracksSchedule(t *testing.T) {
	// 1F1B stage 0 keeps min(PP, microbatches) in flight; GPipe keeps all.
	c := cfg(t, model.GPT3_15B(), 2, 4, 1, 8)
	one := estimate(t, Model{}, c)
	if one.InFlight != 4 {
		t.Fatalf("1F1B stage-0 in-flight %d, want PP=4", one.InFlight)
	}
	c.Schedule = parallel.GPipe
	gp := estimate(t, Model{}, c)
	if gp.InFlight != 8 {
		t.Fatalf("GPipe in-flight %d, want all 8 microbatches", gp.InFlight)
	}
	if gp.Activations <= one.Activations {
		t.Fatal("GPipe must cost more activation memory than 1F1B")
	}
}

func TestZBH1PeakMatchesOneFOneB(t *testing.T) {
	// ZB-H1's B pass releases activations exactly like a 1F1B backward, so
	// the whole memory decomposition matches 1F1B bit-for-bit.
	for _, shape := range [][4]int{{2, 2, 2, 8}, {2, 4, 1, 8}, {1, 2, 4, 4}} {
		c := cfg(t, model.GPT3_15B(), shape[0], shape[1], shape[2], shape[3])
		fb := estimate(t, Model{}, c)
		c.Schedule = parallel.ZBH1
		zb := estimate(t, Model{}, c)
		if zb != fb {
			t.Fatalf("%v: ZB-H1 estimate %+v != 1F1B %+v", shape, zb, fb)
		}
	}
}

func TestInterleavedActivationPressure(t *testing.T) {
	c := cfg(t, model.GPT3_15B(), 2, 2, 1, 8)
	fb := estimate(t, Model{}, c)

	il := c
	il.Schedule = parallel.Interleaved
	il.VirtualStages = 2
	e := estimate(t, Model{}, il)
	// Interleaving holds more chunk-microbatches in flight...
	if e.InFlight <= fb.InFlight {
		t.Fatalf("interleaved in-flight %d not > 1F1B %d", e.InFlight, fb.InFlight)
	}
	// ...each holding a 1/v layer slice, so the total exceeds 1F1B (the
	// schedule's memory cost) but stays under the naive full-stage charge.
	if e.Activations <= fb.Activations {
		t.Fatalf("interleaved activations %d not > 1F1B %d", e.Activations, fb.Activations)
	}
	perChunk := ActivationBytesPerLayer(il, false) * int64(il.LayersPerChunk())
	if want := perChunk * int64(e.InFlight); e.Activations != want {
		t.Fatalf("interleaved activations %d, want in-flight × per-chunk %d", e.Activations, want)
	}
	naive := ActivationBytesPerLayer(il, false) * int64(il.LayersPerStage()) * int64(e.InFlight)
	if e.Activations >= naive {
		t.Fatal("interleaved activation charge must account for the thinner chunks")
	}
}

func TestTPAndSequenceParallelShrinkActivations(t *testing.T) {
	base := cfg(t, model.GPT3_15B(), 1, 1, 1, 4)
	tp4 := cfg(t, model.GPT3_15B(), 4, 1, 1, 4)
	if !(ActivationBytesPerLayer(tp4, false) < ActivationBytesPerLayer(base, false)) {
		t.Fatal("TP must shard activation memory")
	}
	sp := tp4
	sp.SequenceParallel = true
	if !(ActivationBytesPerLayer(sp, false) < ActivationBytesPerLayer(tp4, false)) {
		t.Fatal("sequence parallelism must shard the layernorm activations")
	}
	// Materialized attention scores dominate at long sequence lengths; a
	// flash-style attention never stores them.
	if !(ActivationBytesPerLayer(tp4, false) < ActivationBytesPerLayer(tp4, true)) {
		t.Fatal("storing scores must cost more than flash attention")
	}
	flash := estimate(t, Model{}, tp4)
	scored := estimate(t, Model{NoFlashAttention: true}, tp4)
	if !(flash.Activations < scored.Activations) {
		t.Fatal("NoFlashAttention must raise the activation estimate")
	}
}

func TestFeasibility(t *testing.T) {
	// 175B on 4 GPUs cannot fit; spread across 8 pipeline stages and ZeRO-2
	// over DP it fits a lot more comfortably.
	tight := cfg(t, model.GPT3_175B(), 2, 2, 1, 4)
	_, ok, err := Model{}.Feasible(tight)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("175B on 4 GPUs should be infeasible")
	}
	wide := cfg(t, model.GPT3_175B(), 8, 12, 4, 12)
	wide.SequenceParallel = true
	e, ok, err := Model{ZeRO: ZeROGradients}.Feasible(wide)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("175B across 384 GPUs with ZeRO-2 should fit, got %v", e)
	}
	// Invalid configs propagate their validation error.
	bad := tight
	bad.Map.PP = 5 // 96 layers not divisible
	if _, _, err := (Model{}).Feasible(bad); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestDefaultsResolved(t *testing.T) {
	m := DefaultModel()
	if m.GPUMemBytes != 80<<30 || m.ReserveBytes != 6<<30 || m.OptimBytesPerParam != 12 {
		t.Fatalf("unexpected defaults %+v", m)
	}
	if m.Usable() != (80<<30)-(6<<30) {
		t.Fatalf("usable %d", m.Usable())
	}
}

// TestPeakMemoryMonotoneInMicrobatches checks the invariant the planner's
// branch-and-bound rests on when it books a subtree's whole microbatch
// tail as OOM after its first OOM point: among valid configs, peak memory
// never falls as the microbatch count grows, for every schedule family,
// pipeline and data-parallel degree, ZeRO stage and model size.
func TestPeakMemoryMonotoneInMicrobatches(t *testing.T) {
	specs := []string{"1f1b", "gpipe", "interleaved2", "interleaved4", "zb-h1"}
	checked := 0
	for _, arch := range []model.Arch{model.GPT3_15B(), model.GPT3_V3(), model.GPT3_175B()} {
		for _, name := range specs {
			spec, err := schedule.Parse(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, pp := range []int{1, 2, 3, 4, 6, 8} {
				for _, dp := range []int{1, 2, 4, 8} {
					for zero := ZeRONone; zero <= ZeROGradients; zero++ {
						m := Model{ZeRO: zero}
						c := cfg(t, arch, 2, pp, dp, 1)
						c.Schedule, c.VirtualStages = spec.Policy, spec.Virtual
						var prev int64
						prevMB := 0
						for mb := 1; mb <= 160; mb++ {
							c.Microbatches = mb
							if c.Validate() != nil {
								continue
							}
							total := estimate(t, m, c).Total()
							if prevMB > 0 && total < prev {
								t.Fatalf("%s %s PP%d DP%d %v: peak memory falls from %d B at %d microbatches to %d B at %d",
									arch.Name, name, pp, dp, zero, prev, prevMB, total, mb)
							}
							prev, prevMB = total, mb
							checked++
						}
					}
				}
			}
		}
	}
	t.Logf("%d valid configurations checked", checked)
}

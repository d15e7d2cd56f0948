package analysis

import (
	"testing"

	"lumos/internal/execgraph"
	"lumos/internal/replay"
	"lumos/internal/trace"
)

// TestScaleAndFusionCompose is the retiming-composition test: a single
// copy-on-write view can carry a kernel-scale override AND the fusion
// rewrite, replayed in one pass. Fusion reads durations through the view,
// so the merged run's cost reflects the already-scaled kernels.
func TestScaleAndFusionCompose(t *testing.T) {
	g := fusionGraph(t)
	sim := replay.NewSimulator(replay.DefaultOptions())
	base, err := sim.Run(g)
	if err != nil {
		t.Fatal(err)
	}

	// Fusion alone.
	vFuse := execgraph.NewRetimed(g)
	groups, removed := ApplyFusion(vFuse, DefaultFusionOpts())
	if groups == 0 || removed == 0 {
		t.Fatalf("no fusion opportunities found (%d groups, %d removed)", groups, removed)
	}
	fusedOnly, err := sim.RunRetimed(vFuse)
	if err != nil {
		t.Fatal(err)
	}

	// GEMM scale composed with fusion on one view.
	vBoth := execgraph.NewRetimed(g)
	matchGEMM := func(tk *execgraph.Task) bool { return tk.Class == trace.KCGEMM }
	if n := vBoth.Scale(matchGEMM, 0.5); n == 0 {
		t.Fatal("no GEMMs matched")
	}
	g2, r2 := ApplyFusion(vBoth, DefaultFusionOpts())
	if g2 != groups || r2 != removed {
		t.Fatalf("fusion structure changed under composition: %d/%d vs %d/%d", g2, r2, groups, removed)
	}
	both, err := sim.RunRetimed(vBoth)
	if err != nil {
		t.Fatal(err)
	}

	if fusedOnly.Makespan >= base.Makespan {
		t.Fatalf("fusion alone not faster: %d vs %d", fusedOnly.Makespan, base.Makespan)
	}
	if both.Makespan >= fusedOnly.Makespan {
		t.Fatalf("composed scale+fusion (%d) not faster than fusion alone (%d)",
			both.Makespan, fusedOnly.Makespan)
	}

	// The graph's recorded durations survive all of it.
	after, err := sim.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if after.Makespan != base.Makespan {
		t.Fatal("composed what-ifs mutated the shared graph")
	}
}

// TestWhatIfFusionSimAgreesWithOneShot pins the pooled-simulator fusion
// path to the one-shot reference implementation.
func TestWhatIfFusionSimAgreesWithOneShot(t *testing.T) {
	g := fusionGraph(t)
	ref, err := WhatIfFusion(g, DefaultFusionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sim := replay.NewSimulator(replay.DefaultOptions())
	base, err := sim.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WhatIfFusionSim(sim, g, DefaultFusionOpts(), base.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("pooled fusion %+v != one-shot %+v", got, ref)
	}
}

// TestGraphBreakdownMatchesTraceBreakdown checks the graph-side and
// replay-column breakdowns agree with the trace-side one on a replayed
// execution (same spans, same interval algebra).
func TestGraphBreakdownMatchesTraceBreakdown(t *testing.T) {
	g := fusionGraph(t)
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr := replay.ToTrace(g, res)
	// Rebuild a graph-shaped copy with replayed times to compare the two
	// breakdown computations on identical inputs.
	replayed := *g
	replayed.Tasks = make([]execgraph.Task, len(g.Tasks))
	copy(replayed.Tasks, g.Tasks)
	for i := range replayed.Tasks {
		replayed.Tasks[i].Start = res.Start[i]
		replayed.Tasks[i].Dur = res.End[i] - res.Start[i]
	}
	bt := MultiBreakdown(tr)
	if bg := GraphBreakdown(&replayed); bg != bt {
		t.Fatalf("graph breakdown %+v != trace breakdown %+v", bg, bt)
	}
	if br := ReplayBreakdown(g, res.Start, res.End); br != bt {
		t.Fatalf("replay-column breakdown %+v != trace breakdown %+v", br, bt)
	}
}

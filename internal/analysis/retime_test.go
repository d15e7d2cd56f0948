package analysis

import (
	"testing"

	"lumos/internal/execgraph"
	"lumos/internal/replay"
	"lumos/internal/trace"
)

// whatIfScale replays g once with every matched kernel's duration scaled
// by factor, compiled fresh; the graph is never mutated.
func whatIfScale(g *execgraph.Graph, match func(*execgraph.Task) bool, factor float64) (trace.Dur, error) {
	t := replay.NewTimings(g)
	ScaleDurations(g, t, match, factor)
	res, err := replay.Compile(g, replay.DefaultOptions()).Run(t, replay.NewScratch())
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// whatIfFusion replays g as recorded for the baseline, then the fused
// counterfactual on the same compiled program and scratch.
func whatIfFusion(g *execgraph.Graph, opts FusionOpts) (FusionReport, error) {
	prog := replay.Compile(g, replay.DefaultOptions())
	s := replay.NewScratch()
	base, err := prog.Run(replay.Timings{}, s)
	if err != nil {
		return FusionReport{}, err
	}
	rep := FusionReport{Baseline: base.Makespan}
	t := replay.NewTimings(g)
	rep.FusedGroups, rep.KernelsRemoved = ApplyFusion(g, t, opts)
	fused, err := prog.Run(t, s)
	if err != nil {
		return rep, err
	}
	rep.Fused = fused.Makespan
	return rep, nil
}

// TestScaleDurations checks the class-scale column rewrite on a hand-built
// graph: only matched GPU tasks scale, a group duration scales only when
// it is positive, the graph keeps its recorded durations, and a second
// scale composes with the first.
func TestScaleDurations(t *testing.T) {
	g := execgraph.NewGraph(1)
	cpu := g.EnsureProc(0, false, 1)
	gpu := g.EnsureProc(0, true, 7)
	launch := g.AddTask(execgraph.Task{Kind: execgraph.TaskCPU, Proc: cpu, Name: "b", Dur: 40})
	a := g.AddTask(execgraph.Task{Kind: execgraph.TaskGPU, Proc: gpu, Name: "a", Dur: 100})
	b := g.AddTask(execgraph.Task{Kind: execgraph.TaskGPU, Proc: gpu, Name: "b", Start: 100, Dur: 200, GroupDur: 150})
	c := g.AddTask(execgraph.Task{Kind: execgraph.TaskGPU, Proc: gpu, Name: "b", Start: 300, Dur: 80})
	tm := replay.NewTimings(g)
	matchB := func(tk *execgraph.Task) bool { return tk.Name == "b" }

	if n := ScaleDurations(g, tm, matchB, 0.5); n != 2 {
		t.Fatalf("matched %d tasks, want the 2 GPU tasks named b", n)
	}
	for _, w := range []struct {
		id        int32
		dur, gdur trace.Dur
	}{{launch, 40, 0}, {a, 100, 0}, {b, 100, 75}, {c, 40, 0}} {
		if tm.Dur[w.id] != w.dur || tm.GroupDur[w.id] != w.gdur {
			t.Fatalf("task %d: dur %d group %d, want %d %d", w.id, tm.Dur[w.id], tm.GroupDur[w.id], w.dur, w.gdur)
		}
	}
	if g.Tasks[b].Dur != 200 || g.Tasks[b].GroupDur != 150 {
		t.Fatal("scaling mutated the graph")
	}

	ScaleDurations(g, tm, matchB, 0.5)
	if tm.Dur[b] != 50 || tm.GroupDur[b] != 37 || tm.Dur[c] != 20 {
		t.Fatalf("composed scale: b %d/%d c %d, want 50/37 and 20", tm.Dur[b], tm.GroupDur[b], tm.Dur[c])
	}
}

// TestScaleAndFusionCompose is the retiming-composition test: one set of
// duration columns carries a kernel-scale rewrite AND the fusion rewrite,
// replayed in one pass. Fusion reads the columns, so the merged run's cost
// reflects the already-scaled kernels. Both engines replay the same
// columns and must agree bit for bit.
func TestScaleAndFusionCompose(t *testing.T) {
	g := fusionGraph(t)
	sim := replay.NewSimulator(replay.DefaultOptions())
	prog := replay.Compile(g, replay.DefaultOptions())
	scratch := replay.NewScratch()
	run := func(tm replay.Timings) trace.Dur {
		t.Helper()
		want, err := sim.Run(g, tm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prog.Run(tm, scratch)
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan {
			t.Fatalf("compiled makespan %d != interpreter %d", got.Makespan, want.Makespan)
		}
		return got.Makespan
	}
	base := run(replay.Timings{})

	// Fusion alone.
	fuse := replay.NewTimings(g)
	groups, removed := ApplyFusion(g, fuse, DefaultFusionOpts())
	if groups == 0 || removed == 0 {
		t.Fatalf("no fusion opportunities found (%d groups, %d removed)", groups, removed)
	}
	fusedOnly := run(fuse)

	// GEMM scale composed with fusion on one set of columns.
	both := replay.NewTimings(g)
	matchGEMM := func(tk *execgraph.Task) bool { return tk.Class == trace.KCGEMM }
	if n := ScaleDurations(g, both, matchGEMM, 0.5); n == 0 {
		t.Fatal("no GEMMs matched")
	}
	g2, r2 := ApplyFusion(g, both, DefaultFusionOpts())
	if g2 != groups || r2 != removed {
		t.Fatalf("fusion structure changed under composition: %d/%d vs %d/%d", g2, r2, groups, removed)
	}
	composed := run(both)

	if fusedOnly >= base {
		t.Fatalf("fusion alone not faster: %d vs %d", fusedOnly, base)
	}
	if composed >= fusedOnly {
		t.Fatalf("composed scale+fusion (%d) not faster than fusion alone (%d)", composed, fusedOnly)
	}

	// The graph's recorded durations survive all of it.
	if after := run(replay.Timings{}); after != base {
		t.Fatal("composed what-ifs mutated the shared graph")
	}
}

// TestWhatIfFusionSimAgreesWithOneShot pins the compiled fusion what-if
// to the reference interpreter replaying the same fused columns.
func TestWhatIfFusionSimAgreesWithOneShot(t *testing.T) {
	g := fusionGraph(t)
	ref, err := whatIfFusion(g, DefaultFusionOpts())
	if err != nil {
		t.Fatal(err)
	}
	sim := replay.NewSimulator(replay.DefaultOptions())
	base, err := sim.Run(g, replay.Timings{})
	if err != nil {
		t.Fatal(err)
	}
	got := FusionReport{Baseline: base.Makespan}
	tm := replay.NewTimings(g)
	got.FusedGroups, got.KernelsRemoved = ApplyFusion(g, tm, DefaultFusionOpts())
	fused, err := sim.Run(g, tm)
	if err != nil {
		t.Fatal(err)
	}
	got.Fused = fused.Makespan
	if got != ref {
		t.Fatalf("interpreter fusion %+v != one-shot %+v", got, ref)
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

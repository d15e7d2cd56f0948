package replay

import (
	"errors"
	"reflect"
	"testing"

	"lumos/internal/cluster"
	"lumos/internal/execgraph"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// schedConfig is a GPT-3 15B deployment under a specific pipeline schedule.
func schedConfig(t *testing.T, pol parallel.SchedulePolicy, tp, pp, dp, mb int) parallel.Config {
	t.Helper()
	m, err := topology.NewMapping(tp, pp, dp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = mb
	cfg.Schedule = pol
	if pol == parallel.Interleaved {
		cfg.VirtualStages = 2
	}
	return cfg
}

// schedGraph builds a graph from a profiled run under a specific pipeline
// schedule, with the given construction options, so the compiled engine is
// exercised on every structural variant (interleaved wraparound channels,
// ZB-H1 B/W-split slots included).
func schedGraph(t *testing.T, pol parallel.SchedulePolicy, tp, pp, dp, mb int, seed uint64, opts ...execgraph.BuildOptions) *execgraph.Graph {
	t.Helper()
	cfg := schedConfig(t, pol, tp, pp, dp, mb)
	traces, err := cluster.Run(cfg, cluster.DefaultSimConfig(cfg.Map.WorldSize(), seed))
	if err != nil {
		t.Fatal(err)
	}
	bopts := execgraph.DefaultOptions()
	if len(opts) > 0 {
		bopts = opts[0]
	}
	g, err := execgraph.Build(traces, bopts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mustMatch asserts two results are bit-identical: every per-task time,
// every rank span, the makespan and the executed count.
func mustMatch(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.Executed != got.Executed {
		t.Fatalf("%s: executed %d != %d", label, got.Executed, want.Executed)
	}
	if want.Makespan != got.Makespan {
		t.Fatalf("%s: makespan %d != %d", label, got.Makespan, want.Makespan)
	}
	for i := range want.Start {
		if want.Start[i] != got.Start[i] || want.End[i] != got.End[i] {
			t.Fatalf("%s: task %d times (%d,%d) != (%d,%d)",
				label, i, got.Start[i], got.End[i], want.Start[i], want.End[i])
		}
	}
	if !reflect.DeepEqual(want.RankSpan, got.RankSpan) {
		t.Fatalf("%s: rank spans differ", label)
	}
}

// TestCompiledMatchesInterpreterSchedules is the bit-identity property test:
// for every pipeline schedule, on randomized graphs, the compiled engine
// must reproduce the interpreter exactly — with recorded durations and
// through degraded-fabric-style retimed views. Three graph sources are
// covered: graphs built from profiled traces, graphs built with the dPRO
// baseline's options (compute→comm inter-stream edges only, replayed with
// uncoupled collectives), and graphs emitted directly by synthesis.
func TestCompiledMatchesInterpreterSchedules(t *testing.T) {
	schedules := []struct {
		name string
		pol  parallel.SchedulePolicy
	}{
		{"1f1b", parallel.OneFOneB},
		{"gpipe", parallel.GPipe},
		{"interleaved", parallel.Interleaved},
		{"zb-h1", parallel.ZBH1},
	}
	dproBuild := execgraph.DefaultOptions()
	dproBuild.InterStream = execgraph.InterStreamComputeToComm
	uncoupled := DefaultOptions()
	uncoupled.CoupleCollectives = false
	for _, sc := range schedules {
		t.Run(sc.name, func(t *testing.T) {
			for _, seed := range []uint64{7, 71} {
				cfg := schedConfig(t, sc.pol, 2, 2, 1, 4)
				synth, err := cluster.Synthesize(cfg, cluster.DefaultSimConfig(cfg.Map.WorldSize(), seed))
				if err != nil {
					t.Fatal(err)
				}
				for _, in := range []struct {
					label string
					g     *execgraph.Graph
					opts  Options
				}{
					{"profiled", schedGraph(t, sc.pol, 2, 2, 1, 4, seed), DefaultOptions()},
					{"dpro", schedGraph(t, sc.pol, 2, 2, 1, 4, seed, dproBuild), uncoupled},
					{"synthesized", synth, DefaultOptions()},
				} {
					matchEngines(t, in.g, in.opts, in.label)
				}
			}
		})
	}
}

// matchEngines replays g on both engines, with recorded durations and
// through retimed views, and requires bit-identical results.
func matchEngines(t *testing.T, g *execgraph.Graph, opts Options, label string) {
	t.Helper()
	sim := NewSimulator(opts)
	eng := NewCompiled(opts)

	want, err := sim.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, want, got, label+"/recorded")

	// Degraded-fabric style retiming: collectives slowed, one compute
	// class scaled. The two engines consume the same view, interpreted as
	// wrapper calls vs flat columns.
	for _, f := range []float64{1.9, 0.55} {
		v := execgraph.NewRetimed(g)
		v.Scale(func(tk *execgraph.Task) bool { return tk.Class == trace.KCComm }, f)
		v.Scale(func(tk *execgraph.Task) bool { return tk.Class == trace.KCGEMM }, 2-f/2)
		want, err = sim.RunRetimed(v)
		if err != nil {
			t.Fatal(err)
		}
		got, err = eng.RunRetimed(v)
		if err != nil {
			t.Fatal(err)
		}
		mustMatch(t, want, got, label+"/retimed")
	}
}

// TestCompiledUncoupledMatchesInterpreter covers the CoupleCollectives=false
// configuration, where no rendezvous groups are compiled.
func TestCompiledUncoupledMatchesInterpreter(t *testing.T) {
	g := schedGraph(t, parallel.OneFOneB, 2, 2, 1, 4, 13)
	opts := Options{SyncMinDur: 1500, CoupleCollectives: false}
	want, err := NewSimulator(opts).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewCompiled(opts).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, want, got, "uncoupled")
}

// deadlockGraph is a two-task graph whose second task claims a fixed
// in-edge nobody provides: the simulation must stall with one task done.
func deadlockGraph() *execgraph.Graph {
	return &execgraph.Graph{
		NumRanks: 1,
		Procs:    []execgraph.Proc{{Rank: 0, TID: 1}},
		Tasks: []execgraph.Task{
			{ID: 0, Kind: execgraph.TaskCPU, Dur: 10, LaunchTask: -1},
			{ID: 1, Kind: execgraph.TaskCPU, Start: 10, Dur: 10, NFixedIn: 1, LaunchTask: -1},
		},
	}
}

// TestCompiledDeadlockParity requires the compiled engine to fail exactly
// like the interpreter: same typed *DeadlockError, same counts, same stuck
// sample.
func TestCompiledDeadlockParity(t *testing.T) {
	g := deadlockGraph()
	_, ierr := NewSimulator(DefaultOptions()).Run(g)
	_, cerr := NewCompiled(DefaultOptions()).Run(g)
	var iw, cw *DeadlockError
	if !errors.As(ierr, &iw) {
		t.Fatalf("interpreter error %v is not a DeadlockError", ierr)
	}
	if !errors.As(cerr, &cw) {
		t.Fatalf("compiled error %v is not a DeadlockError", cerr)
	}
	if !reflect.DeepEqual(iw, cw) {
		t.Fatalf("deadlock mismatch: interpreter %+v vs compiled %+v", iw, cw)
	}
	if cw.Executed != 1 || cw.Total != 2 || len(cw.Stuck) != 1 || cw.Stuck[0] != 1 {
		t.Fatalf("unexpected deadlock shape: %+v", cw)
	}
}

// TestCompiledEngineReuse moves one engine (and its scratch) across graphs
// and between plain and retimed runs, mirroring the pooled-simulator
// contract.
func TestCompiledEngineReuse(t *testing.T) {
	gSmall := schedGraph(t, parallel.OneFOneB, 2, 1, 1, 4, 49)
	gLarge := schedGraph(t, parallel.OneFOneB, 2, 2, 1, 4, 49)
	eng := NewCompiled(DefaultOptions())
	for _, g := range []*execgraph.Graph{gSmall, gLarge, gSmall} {
		want, err := Run(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Run(g)
		if err != nil {
			t.Fatal(err)
		}
		mustMatch(t, want, got, "rebind")
	}
}

// TestReplayAllocBudget is the allocation-regression guard for the compiled
// engine: a retimed run on a warmed scratch must stay within a handful of
// allocations (the steady path allocates nothing; the budget leaves slack
// for testing harness noise only).
func TestReplayAllocBudget(t *testing.T) {
	g := schedGraph(t, parallel.ZBH1, 2, 2, 1, 4, 23)
	prog := Compile(g, DefaultOptions())
	scratch := NewScratch()

	// Retimed columns prepared once, as core's pooled timing buffers are.
	dur := append([]trace.Dur(nil), prog.BaseDur()...)
	gdur := append([]trace.Dur(nil), prog.BaseGroupDur()...)
	for i := range dur {
		dur[i] = dur[i] * 3 / 2
	}
	if _, err := prog.Run(Timings{Dur: dur, GroupDur: gdur}, scratch); err != nil {
		t.Fatal(err)
	}

	const budget = 8
	avg := testing.AllocsPerRun(10, func() {
		if _, err := prog.Run(Timings{Dur: dur, GroupDur: gdur}, scratch); err != nil {
			t.Fatal(err)
		}
	})
	if avg > budget {
		t.Fatalf("retimed compiled run allocates %.1f/run, budget %d", avg, budget)
	}
}

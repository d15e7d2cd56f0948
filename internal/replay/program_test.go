package replay

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"

	"lumos/internal/cluster"
	"lumos/internal/execgraph"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/rng"
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
// under degraded-fabric-style retimed columns. Three graph sources are
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
				synth, err := cluster.Synthesize(cfg, cluster.DefaultSimConfig(cfg.Map.WorldSize(), seed), nil)
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
// under retimed columns, and requires bit-identical results.
func matchEngines(t *testing.T, g *execgraph.Graph, opts Options, label string) {
	t.Helper()
	sim := NewSimulator(opts)
	prog := Compile(g, opts)
	scratch := NewScratch()
	match := func(tm Timings, label string) {
		t.Helper()
		want, err := sim.Run(g, tm)
		if err != nil {
			t.Fatal(err)
		}
		got, err := prog.Run(tm, scratch)
		if err != nil {
			t.Fatal(err)
		}
		mustMatch(t, want, got, label)
	}
	match(Timings{}, label+"/recorded")

	// Degraded-fabric style retiming: collectives slowed, one compute
	// class scaled. Both engines replay the same columns.
	for _, f := range []float64{1.9, 0.55} {
		tm := NewTimings(g)
		scaleTasks(g, tm, func(tk *execgraph.Task) bool { return tk.Class == trace.KCComm }, f)
		scaleTasks(g, tm, func(tk *execgraph.Task) bool { return tk.Class == trace.KCGEMM }, 2-f/2)
		match(tm, label+"/retimed")
	}
}

// scaleTasks multiplies the duration, and the group duration where
// positive, of every matched GPU task in tm, as a class-scale what-if does.
func scaleTasks(g *execgraph.Graph, tm Timings, match func(*execgraph.Task) bool, f float64) {
	for i := range g.Tasks {
		if tk := &g.Tasks[i]; tk.Kind == execgraph.TaskGPU && match(tk) {
			tm.Dur[i] = trace.Dur(float64(tm.Dur[i]) * f)
			if tm.GroupDur[i] > 0 {
				tm.GroupDur[i] = trace.Dur(float64(tm.GroupDur[i]) * f)
			}
		}
	}
}

// TestCompiledUncoupledMatchesInterpreter covers the CoupleCollectives=false
// configuration, where no rendezvous groups are compiled.
func TestCompiledUncoupledMatchesInterpreter(t *testing.T) {
	g := schedGraph(t, parallel.OneFOneB, 2, 2, 1, 4, 13)
	opts := Options{SyncMinDur: 1500, CoupleCollectives: false}
	want, err := NewSimulator(opts).Run(g, Timings{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(g, opts)
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

// reversedDeadlockGraph is twelve tasks whose recorded starts run against
// their IDs, all but the last waiting on a fixed in-edge nobody provides:
// more stuck tasks than a DeadlockError samples, in an order the compiled
// engine renumbers.
func reversedDeadlockGraph() *execgraph.Graph {
	g := &execgraph.Graph{NumRanks: 1, Procs: []execgraph.Proc{{Rank: 0, TID: 1}}}
	const n = 12
	for i := 0; i < n; i++ {
		task := execgraph.Task{ID: int32(i), Kind: execgraph.TaskCPU, Start: trace.Time(10 * (n - i)), Dur: 10, LaunchTask: -1}
		if i < n-1 {
			task.NFixedIn = 1
		}
		g.Tasks = append(g.Tasks, task)
	}
	return g
}

// TestCompiledDeadlockParity requires the compiled engine to fail exactly
// like the interpreter: same typed *DeadlockError, same counts, same stuck
// sample — the lowest stuck graph task IDs, even when the compiled engine
// numbers tasks in another order.
func TestCompiledDeadlockParity(t *testing.T) {
	for _, tc := range []struct {
		name      string
		g         *execgraph.Graph
		wantStuck []int32
	}{
		{"two tasks", deadlockGraph(), []int32{1}},
		{"reversed starts", reversedDeadlockGraph(), []int32{0, 1, 2, 3, 4, 5, 6, 7}},
	} {
		_, ierr := NewSimulator(DefaultOptions()).Run(tc.g, Timings{})
		_, cerr := Run(tc.g, DefaultOptions())
		var iw, cw *DeadlockError
		if !errors.As(ierr, &iw) {
			t.Fatalf("%s: interpreter error %v is not a DeadlockError", tc.name, ierr)
		}
		if !errors.As(cerr, &cw) {
			t.Fatalf("%s: compiled error %v is not a DeadlockError", tc.name, cerr)
		}
		if !reflect.DeepEqual(iw, cw) {
			t.Fatalf("%s: deadlock mismatch: interpreter %+v vs compiled %+v", tc.name, iw, cw)
		}
		if cw.Executed != 1 || cw.Total != len(tc.g.Tasks) || !reflect.DeepEqual(cw.Stuck, tc.wantStuck) {
			t.Fatalf("%s: unexpected deadlock shape: %+v", tc.name, cw)
		}
	}
}

// TestStartOrder checks the compiled task numbering against a stable sort
// by recorded start, over random starts with ties, negative values and
// spans near the int64 limits.
func TestStartOrder(t *testing.T) {
	src := rng.New(7)
	for _, tc := range []struct {
		name   string
		n      int
		starts func(i int) trace.Time
	}{
		{"empty", 0, nil},
		{"ties", 5000, func(int) trace.Time { return trace.Time(src.Intn(50)) }},
		{"negative", 5000, func(int) trace.Time { return trace.Time(src.Intn(1_000_000)) - 500_000 }},
		{"wide", 5000, func(int) trace.Time { return trace.Time(src.Intn(3_000_000_000)) }},
		{"extremes", 500, func(i int) trace.Time {
			if i%2 == 0 {
				return math.MinInt64 / 2
			}
			return math.MaxInt64/2 - trace.Time(src.Intn(100))
		}},
	} {
		tasks := make([]execgraph.Task, tc.n)
		for i := range tasks {
			tasks[i].Start = tc.starts(i)
		}
		want := make([]int32, tc.n)
		for i := range want {
			want[i] = int32(i)
		}
		sort.SliceStable(want, func(a, b int) bool { return tasks[want[a]].Start < tasks[want[b]].Start })
		if got := startOrder(tasks); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: start order differs from a stable sort by start", tc.name)
		}
	}
}

// TestScratchReuse moves one scratch across a small, a large and a small
// program, as pooled scratches move between workers' programs: every run
// must match a run of the same program on a fresh scratch.
func TestScratchReuse(t *testing.T) {
	small := Compile(schedGraph(t, parallel.OneFOneB, 2, 1, 1, 4, 49), DefaultOptions())
	large := Compile(schedGraph(t, parallel.OneFOneB, 2, 2, 1, 4, 49), DefaultOptions())
	scratch := NewScratch()
	for _, prog := range []*Program{small, large, small} {
		want, err := prog.Run(Timings{}, NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		got, err := prog.Run(Timings{}, scratch)
		if err != nil {
			t.Fatal(err)
		}
		mustMatch(t, want, got, "reuse")
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

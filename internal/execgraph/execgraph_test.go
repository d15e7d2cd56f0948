package execgraph_test

import (
	"slices"
	"testing"

	"lumos/internal/cluster"
	"lumos/internal/execgraph"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/replay"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// simTraces produces a small ground-truth trace set for graph tests.
func simTraces(t *testing.T, tp, pp, dp, mb int) *trace.Multi {
	t.Helper()
	m, err := topology.NewMapping(tp, pp, dp)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = mb
	out, err := cluster.Run(cfg, cluster.DefaultSimConfig(m.WorldSize(), 21))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func build(t *testing.T, m *trace.Multi, opts execgraph.BuildOptions) *execgraph.Graph {
	t.Helper()
	g, err := execgraph.Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildValidGraph(t *testing.T) {
	m := simTraces(t, 2, 2, 2, 4)
	g := build(t, m, execgraph.DefaultOptions())
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.CPUTasks == 0 || st.GPUTasks == 0 || st.Edges == 0 || st.Groups == 0 {
		t.Fatalf("degenerate graph: %+v", st)
	}
}

func TestEdgesRespectRecordedTime(t *testing.T) {
	// Every fixed edge must satisfy pred.End() <= succ.Start() in the
	// recorded schedule — the property that guarantees acyclicity.
	m := simTraces(t, 2, 2, 1, 4)
	g := build(t, m, execgraph.DefaultOptions())
	for i := range g.Tasks {
		for _, o := range g.Tasks[i].Out {
			if g.Tasks[i].End() > g.Tasks[o].Start {
				t.Fatalf("edge %d→%d violates time order: %d > %d (%s → %s)",
					i, o, g.Tasks[i].End(), g.Tasks[o].Start, g.Tasks[i].Name, g.Tasks[o].Name)
			}
		}
	}
}

func TestKernelsHaveLaunchTasks(t *testing.T) {
	m := simTraces(t, 2, 1, 1, 4)
	g := build(t, m, execgraph.DefaultOptions())
	for i := range g.Tasks {
		tk := &g.Tasks[i]
		if tk.Kind != execgraph.TaskGPU {
			continue
		}
		if tk.LaunchTask < 0 {
			t.Fatalf("kernel %q has no launch task", tk.Name)
		}
		lt := &g.Tasks[tk.LaunchTask]
		if lt.Kind != execgraph.TaskCPU {
			t.Fatalf("kernel %q launched by non-CPU task %q", tk.Name, lt.Name)
		}
	}
}

func TestLaunchFoldedIntoOperators(t *testing.T) {
	// cudaLaunchKernel events nested in operators must not become tasks.
	m := simTraces(t, 2, 1, 1, 4)
	g := build(t, m, execgraph.DefaultOptions())
	for i := range g.Tasks {
		if g.Tasks[i].Kind == execgraph.TaskCPU && g.Tasks[i].Name == "cudaLaunchKernel" {
			t.Fatal("found an unfolded cudaLaunchKernel task")
		}
	}
}

func TestSyncTasksMarked(t *testing.T) {
	m := simTraces(t, 2, 2, 1, 4)
	g := build(t, m, execgraph.DefaultOptions())
	device, stream := 0, 0
	for i := range g.Tasks {
		switch g.Tasks[i].Sync {
		case execgraph.SyncDevice:
			device++
		case execgraph.SyncStream:
			stream++
			if g.Tasks[i].SyncStreamID < 0 {
				t.Fatal("stream sync without target stream")
			}
		}
	}
	if device == 0 {
		t.Fatal("no device syncs recovered")
	}
	_ = stream // present only in DP>1 or gated configs
}

func TestInterStreamModes(t *testing.T) {
	m := simTraces(t, 2, 2, 2, 4)
	full := build(t, m, execgraph.DefaultOptions())
	partialOpts := execgraph.DefaultOptions()
	partialOpts.InterStream = execgraph.InterStreamComputeToComm
	partial := build(t, m, partialOpts)
	noneOpts := execgraph.DefaultOptions()
	noneOpts.InterStream = execgraph.InterStreamNone
	none := build(t, m, noneOpts)

	fe, pe, ne := full.Stats().Edges, partial.Stats().Edges, none.Stats().Edges
	if !(fe > pe && pe > ne) {
		t.Fatalf("edge counts should strictly decrease: all=%d compute→comm=%d none=%d", fe, pe, ne)
	}
	// In partial mode, no edge may target a non-comm kernel from a kernel
	// on another stream.
	for i := range partial.Tasks {
		src := &partial.Tasks[i]
		if src.Kind != execgraph.TaskGPU {
			continue
		}
		for _, o := range src.Out {
			dst := &partial.Tasks[o]
			if dst.Kind != execgraph.TaskGPU || dst.Proc == src.Proc {
				continue
			}
			if !dst.IsComm() {
				t.Fatalf("compute→comm mode kept edge to compute kernel %q", dst.Name)
			}
		}
	}
}

func TestCrossRankGroups(t *testing.T) {
	m := simTraces(t, 2, 2, 2, 4)
	g := build(t, m, execgraph.DefaultOptions())
	if len(g.Groups) == 0 {
		t.Fatal("no collective groups")
	}
	for key, members := range g.Groups {
		if len(members) < 2 {
			t.Fatalf("group %v with %d members survived finalize", key, len(members))
		}
		ranks := map[int32]bool{}
		minDur := g.Tasks[members[0]].Dur
		for _, id := range members {
			ranks[g.Tasks[id].Rank] = true
			if g.Tasks[id].Dur < minDur {
				minDur = g.Tasks[id].Dur
			}
		}
		if len(ranks) != len(members) {
			t.Fatalf("group %v has duplicate ranks", key)
		}
		for _, id := range members {
			if g.Tasks[id].GroupDur != minDur {
				t.Fatalf("group %v member has GroupDur %d, want %d", key, g.Tasks[id].GroupDur, minDur)
			}
		}
	}
}

func TestInterThreadDepsRecoverHandoffs(t *testing.T) {
	// The autograd thread's first task must depend on some main-thread task:
	// that is the backward handoff the gap heuristic exists to find.
	m := simTraces(t, 2, 1, 1, 4)
	g := build(t, m, execgraph.DefaultOptions())

	// Find each rank's autograd-thread first task and check it has an
	// in-edge from a task on another thread.
	for rank := 0; rank < m.NumRanks(); rank++ {
		agProc := int32(slices.Index(g.Procs, execgraph.Proc{Rank: rank, TID: 2})) // autograd thread
		if agProc < 0 {
			t.Fatalf("rank %d has no autograd thread", rank)
		}
		var first int32 = -1
		for i := range g.Tasks {
			if g.Tasks[i].Proc != agProc {
				continue
			}
			if first < 0 || g.Tasks[i].Start < g.Tasks[first].Start {
				first = int32(i)
			}
		}
		if first < 0 {
			t.Fatalf("rank %d autograd thread empty", rank)
		}
		hasCross := false
		for i := range g.Tasks {
			if g.Tasks[i].Proc == agProc || g.Tasks[i].Kind != execgraph.TaskCPU {
				continue
			}
			for _, o := range g.Tasks[i].Out {
				if o == first {
					hasCross = true
				}
			}
		}
		if !hasCross {
			t.Fatalf("rank %d: no inter-thread dependency into the first backward task", rank)
		}
	}
}

// TestInterThreadDepsBindUnderCPUWhatIf pins a case in which the CPU gap
// heuristic changes an answer. On a launch-bound model (GPT-3 15B cut to 8
// layers of hidden 512, TP2×PP2×DP2, 8 microbatches), a what-if that
// doubles every CPU task's duration reads 17.774 ms with the heuristic's
// inter-thread edges and 15.675 ms without them; the substrate, run with
// doubled CPU costs, reads about 17.17 ms.
func TestInterThreadDepsBindUnderCPUWhatIf(t *testing.T) {
	m, err := topology.NewMapping(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B().WithLayers(8).WithHidden(512, 2048), m)
	cfg.Microbatches = 8
	profiled, err := cluster.Run(cfg, cluster.DefaultSimConfig(m.WorldSize(), 7))
	if err != nil {
		t.Fatal(err)
	}
	cpuTwice := func(interThread bool) trace.Dur {
		opts := execgraph.DefaultOptions()
		opts.InterThreadDeps = interThread
		g := build(t, profiled, opts)
		dur := replay.NewTimings(g)
		for i := range g.Tasks {
			if g.Tasks[i].Kind == execgraph.TaskCPU {
				dur.Dur[i] *= 2
			}
		}
		res, err := replay.Compile(g, replay.DefaultOptions()).Run(dur, replay.NewScratch())
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	on, off := cpuTwice(true), cpuTwice(false)
	t.Logf("CPU x2 what-if: %d ns with the gap heuristic, %d ns without", on, off)
	if float64(on) < 1.05*float64(off) {
		t.Fatalf("gap heuristic moved the CPU x2 replay from %d to %d ns; want it at least 5%% later", off, on)
	}
}

func TestAddEdgeAndCycleDetection(t *testing.T) {
	g := execgraph.NewGraph(1)
	a := g.AddTask(execgraph.Task{Kind: execgraph.TaskCPU, Name: "a"})
	b := g.AddTask(execgraph.Task{Kind: execgraph.TaskCPU, Name: "b"})
	g.AddEdge(a, b)
	if err := g.CheckAcyclic(); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(b, a)
	if err := g.CheckAcyclic(); err == nil {
		t.Fatal("cycle must be detected")
	}
	// Self edges are ignored.
	g2 := execgraph.NewGraph(1)
	c := g2.AddTask(execgraph.Task{Kind: execgraph.TaskCPU, Name: "c"})
	g2.AddEdge(c, c)
	if len(g2.Tasks[c].Out) != 0 {
		t.Fatal("self edge must be dropped")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := execgraph.NewGraph(1)
	a := g.AddTask(execgraph.Task{Kind: execgraph.TaskCPU})
	g.Tasks[a].Out = append(g.Tasks[a].Out, 99)
	if err := g.Validate(); err == nil {
		t.Fatal("out-of-range edge must be caught")
	}
	g2 := execgraph.NewGraph(1)
	x := g2.AddTask(execgraph.Task{Kind: execgraph.TaskCPU})
	y := g2.AddTask(execgraph.Task{Kind: execgraph.TaskCPU})
	g2.AddEdge(x, y)
	g2.Tasks[y].NFixedIn = 5
	if err := g2.Validate(); err == nil {
		t.Fatal("in-degree mismatch must be caught")
	}
}

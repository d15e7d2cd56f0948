package analysis

import (
	"testing"

	"lumos/internal/cluster"
	"lumos/internal/execgraph"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/replay"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

func smallGraph(t *testing.T) (*execgraph.Graph, *replay.Result) {
	t.Helper()
	m, err := topology.NewMapping(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = 4
	traces, err := cluster.Run(cfg, cluster.DefaultSimConfig(m.WorldSize(), 55))
	if err != nil {
		t.Fatal(err)
	}
	g, err := execgraph.Build(traces, execgraph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g, res
}

func TestCriticalPathProperties(t *testing.T) {
	g, res := smallGraph(t)
	path := CriticalPath(g, res)
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	// The path ends at the globally last-finishing task.
	last := path[len(path)-1]
	for i := range g.Tasks {
		if res.End[i] > res.End[last.Task] {
			t.Fatalf("path does not end at the last task")
		}
	}
	// Consecutive entries are contiguous in time: end(prev) == start(next).
	for i := 1; i < len(path); i++ {
		if res.End[path[i-1].Task] != res.Start[path[i].Task] {
			t.Fatalf("path gap between %d and %d", path[i-1].Task, path[i].Task)
		}
	}
	// The path's length is bounded by the makespan.
	var total trace.Dur
	for _, p := range path {
		total += p.Dur
	}
	if total > res.Makespan {
		t.Fatalf("path time %d exceeds makespan %d", total, res.Makespan)
	}
}

func TestWhatIfScale(t *testing.T) {
	g, res := smallGraph(t)
	// Making all kernels free cannot increase the makespan; scaling by 1.0
	// must keep it identical.
	same, err := whatIfScale(g, func(*execgraph.Task) bool { return true }, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if same != res.Makespan {
		t.Fatalf("factor=1 changed makespan: %d vs %d", same, res.Makespan)
	}
	faster, err := whatIfScale(g, func(tk *execgraph.Task) bool { return tk.Class == trace.KCGEMM }, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if faster >= res.Makespan {
		t.Fatalf("halving GEMMs did not speed up the iteration: %d vs %d", faster, res.Makespan)
	}
	// What-if must not mutate the original graph.
	res2, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Makespan != res.Makespan {
		t.Fatal("the scale what-if mutated the input graph")
	}
}

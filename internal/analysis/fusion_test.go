package analysis

import (
	"testing"

	"lumos/internal/cluster"
	"lumos/internal/execgraph"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/topology"
)

func fusionGraph(t *testing.T) *execgraph.Graph {
	t.Helper()
	m, err := topology.NewMapping(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = 4
	traces, err := cluster.Run(cfg, cluster.DefaultSimConfig(m.WorldSize(), 61))
	if err != nil {
		t.Fatal(err)
	}
	g, err := execgraph.Build(traces, execgraph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestWhatIfFusion(t *testing.T) {
	g := fusionGraph(t)
	rep, err := whatIfFusion(g, DefaultFusionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.FusedGroups == 0 || rep.KernelsRemoved == 0 {
		t.Fatalf("transformer layers have fusable dropout+residual→norm runs: %+v", rep)
	}
	if rep.Fused > rep.Baseline {
		t.Fatalf("fusion made the iteration slower: %+v", rep)
	}
	if rep.Speedup() < 1.0 {
		t.Fatalf("speedup %v < 1", rep.Speedup())
	}
	// The what-if must not mutate the input graph.
	rep2, err := whatIfFusion(g, DefaultFusionOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Baseline != rep.Baseline {
		t.Fatal("the fusion what-if mutated the graph")
	}
}

func TestWhatIfFusionNoEligibleClasses(t *testing.T) {
	g := fusionGraph(t)
	rep, err := whatIfFusion(g, FusionOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FusedGroups != 0 || rep.Fused != rep.Baseline {
		t.Fatalf("no eligible classes must be a no-op: %+v", rep)
	}
}

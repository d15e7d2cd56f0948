package dpro

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

func profiled(t *testing.T) *trace.Multi {
	t.Helper()
	m, err := topology.NewMapping(4, 1, 2) // TP-heavy: the baseline's weak spot
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = 4
	out, err := cluster.Run(cfg, cluster.DefaultSimConfig(m.WorldSize(), 88))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDPROUnderestimatesAndInflatesOverlap(t *testing.T) {
	// The paper's headline comparison: dPRO under-estimates iteration time
	// and over-estimates overlap relative to a full Lumos replay.
	m := profiled(t)
	recorded := m.Duration()

	lg, err := execgraph.Build(m, execgraph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	lres, err := replay.Run(lg, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	dg, err := execgraph.Build(m, BuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	dres, err := replay.Run(dg, ReplayOptions())
	if err != nil {
		t.Fatal(err)
	}
	dtrace := replay.ToTrace(dg, dres)
	if dres.Makespan >= lres.Makespan {
		t.Fatalf("dPRO (%d) should under-estimate vs Lumos (%d)", dres.Makespan, lres.Makespan)
	}
	if float64(dres.Makespan) > 0.97*float64(recorded) {
		t.Fatalf("dPRO error too small on a TP-heavy config: %d vs recorded %d", dres.Makespan, recorded)
	}
	if dtrace.NumRanks() != m.NumRanks() {
		t.Fatal("rank count changed")
	}
}

func TestBuildOptionsDropOnlyCommToComputeEdges(t *testing.T) {
	m := profiled(t)
	full, err := execgraph.Build(m, execgraph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dg, err := execgraph.Build(m, BuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	if dg.Stats().Edges >= full.Stats().Edges {
		t.Fatal("dPRO graph should have fewer edges than the full graph")
	}
	if dg.Stats().Tasks != full.Stats().Tasks {
		t.Fatal("dPRO graph must keep all tasks")
	}
}

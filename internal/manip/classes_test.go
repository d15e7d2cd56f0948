package manip

import (
	"fmt"
	"sync/atomic"
	"testing"

	"lumos/internal/analysis"
	"lumos/internal/cluster"
	"lumos/internal/execgraph"
	"lumos/internal/kernelmodel"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/topology"
)

// fullSynthesis is PredictGraphWith with one price class per replica:
// every rank simulated, as the generator ran before price classes.
func fullSynthesis(t *testing.T, target parallel.Config, lib *Library, fitted *kernelmodel.Fitted, c topology.Fabric) (*execgraph.Graph, *Predictor) {
	t.Helper()
	pred := &Predictor{Lib: lib, Fitted: fitted}
	g, err := cluster.Synthesize(target, deterministicSim(c, target.Map.WorldSize(), pred), nil)
	if err != nil {
		t.Fatal(err)
	}
	return g, pred
}

// procTimeline is one processor's task sequence: names, starts, durations.
type procTimeline []struct {
	name       string
	start, dur int64
}

// timelines groups a graph's tasks by processor, in emission order, keyed
// by (rank, GPU or CPU, thread or stream ID).
func timelines(g *execgraph.Graph) map[execgraph.Proc]procTimeline {
	out := map[execgraph.Proc]procTimeline{}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		p := g.Procs[t.Proc]
		out[p] = append(out[p], struct {
			name       string
			start, dur int64
		}{t.Name, int64(t.Start), int64(t.Dur)})
	}
	return out
}

// TestPriceClassSynthesisMatchesFull is the price-class equivalence
// property: over the TestBuildProgramsMatchesBuildProgram grid (four
// schedules, TP {1,2,4}, PP {1,2,4} plus 3, DP {2,3}, microbatches
// {2,4,8}, sequence parallelism on and off) on the flat, nvl72 and spine4
// fabrics, synthesizing one representative replica per price class gives
// the full synthesis's iteration, breakdown and library hit/miss counts,
// and every representative rank's timeline equals its full-synthesis
// twin's task for task. DP 1 has a single replica and nothing to merge.
// Two layers per stage keep the grid fast; the class structure does not
// depend on depth.
func TestPriceClassSynthesisMatchesFull(t *testing.T) {
	_, profiled := base(t)
	type sched struct {
		policy  parallel.SchedulePolicy
		virtual int
	}
	schedules := []sched{{parallel.OneFOneB, 0}, {parallel.GPipe, 0}, {parallel.Interleaved, 2}, {parallel.ZBH1, 0}}
	fabrics := []topology.Fabric{topology.H100Cluster(8), topology.NVLDomainFabric(8), topology.OversubscribedFabric(8, 4)}
	var checked, merged atomic.Int64
	t.Cleanup(func() {
		if t.Failed() {
			return
		}
		if n, m := checked.Load(), merged.Load(); m == 0 || m == n {
			t.Fatalf("%d of %d configurations merged price classes; the grid must exercise both", m, n)
		}
		t.Logf("%d configurations checked, %d with merged price classes", checked.Load(), merged.Load())
	})
	for _, f := range fabrics {
		t.Run(f.FabricName(), func(t *testing.T) {
			t.Parallel()
			lib := BuildLibrary(profiled, f)
			fitted := mustFit(t, profiled, f)
			for _, sc := range schedules {
				for _, tp := range []int{1, 2, 4} {
					for _, pp := range []int{1, 2, 3, 4} {
						for _, dp := range []int{2, 3} {
							for _, mb := range []int{2, 4, 8} {
								for _, sp := range []bool{false, true} {
									m, err := topology.NewMapping(tp, pp, dp)
									if err != nil {
										t.Fatal(err)
									}
									cfg := parallel.DefaultConfig(model.GPT3_15B().WithLayers(2*pp), m)
									cfg.Microbatches = mb
									cfg.Schedule = sc.policy
									cfg.VirtualStages = sc.virtual
									cfg.SequenceParallel = sp
									if cfg.Validate() != nil {
										continue
									}
									name := fmt.Sprintf("%s %v/%d tp=%d pp=%d dp=%d mb=%d sp=%v",
										f.FabricName(), sc.policy, sc.virtual, tp, pp, dp, mb, sp)
									got, err := PredictGraphWith(Request{Base: cfg, Target: cfg}, lib, fitted, f)
									if err != nil {
										t.Fatalf("%s: %v", name, err)
									}
									full, used := fullSynthesis(t, cfg, lib, fitted, f)
									comparePriceClasses(t, name, got, full, used)
									checked.Add(1)
									if got.Classes.Merged() {
										merged.Add(1)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// comparePriceClasses checks a price-class synthesis against the full one.
func comparePriceClasses(t *testing.T, name string, got *GraphResult, full *execgraph.Graph, used *Predictor) {
	t.Helper()
	if got.Iteration != full.Duration() {
		t.Fatalf("%s: iteration %d, full synthesis %d", name, got.Iteration, full.Duration())
	}
	if bg, bf := analysis.GraphBreakdown(got.Graph), analysis.GraphBreakdown(full); bg != bf {
		t.Fatalf("%s: breakdown %+v, full synthesis %+v", name, bg, bf)
	}
	if got.LibraryHits != used.Hits || got.LibraryMisses != used.Misses {
		t.Fatalf("%s: library hits/misses %d/%d, full synthesis %d/%d",
			name, got.LibraryHits, got.LibraryMisses, used.Hits, used.Misses)
	}
	if err := got.Graph.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := timelines(full)
	for p, tl := range timelines(got.Graph) {
		w := want[p]
		if len(tl) != len(w) {
			t.Fatalf("%s: rank %d proc %v/%d has %d tasks, full synthesis %d", name, p.Rank, p.IsGPU, p.TID, len(tl), len(w))
		}
		for i := range tl {
			if tl[i] != w[i] {
				t.Fatalf("%s: rank %d proc %v/%d task %d is %+v, full synthesis %+v", name, p.Rank, p.IsGPU, p.TID, i, tl[i], w[i])
			}
		}
	}
}

// simulatedRanks counts the ranks a graph has tasks for.
func simulatedRanks(g *execgraph.Graph) int {
	seen := map[int32]bool{}
	for i := range g.Tasks {
		seen[g.Tasks[i].Rank] = true
	}
	return len(seen)
}

// TestPriceClassesCollapseReplicas pins how far price classes collapse
// two flat-fabric deployments: TP2×PP4×DP4, whose replicas each fill one
// 8-GPU node, simulates one replica (8 of 32 ranks); TP2×PP3×DP8, whose
// 6-rank replicas straddle nodes in three patterns, simulates three
// (18 of 48 ranks). Both still match the full synthesis.
func TestPriceClassesCollapseReplicas(t *testing.T) {
	_, profiled := base(t)
	arch := model.GPT3_15B().WithLayers(24)
	f := topology.H100Cluster(8)
	lib := BuildLibrary(profiled, f)
	fitted := mustFit(t, profiled, f)
	for _, tc := range []struct {
		tp, pp, dp         int
		classes, simulated int
	}{
		{2, 4, 4, 1, 8},
		{2, 3, 8, 3, 18},
	} {
		m, err := topology.NewMapping(tc.tp, tc.pp, tc.dp)
		if err != nil {
			t.Fatal(err)
		}
		cfg := parallel.DefaultConfig(arch, m)
		name := fmt.Sprintf("flat %dx%dx%d", tc.tp, tc.pp, tc.dp)
		got, err := PredictGraphWith(Request{Base: cfg, Target: cfg}, lib, fitted, f)
		if err != nil {
			t.Fatal(err)
		}
		if n := got.Classes.Count(tc.dp); n != tc.classes {
			t.Fatalf("%s: %d price classes (%v), want %d", name, n, got.Classes, tc.classes)
		}
		if n := simulatedRanks(got.Graph); n != tc.simulated {
			t.Fatalf("%s: %d ranks simulated, want %d", name, n, tc.simulated)
		}
		if got.Graph.NumRanks != m.WorldSize() {
			t.Fatalf("%s: NumRanks %d, want the world size %d", name, got.Graph.NumRanks, m.WorldSize())
		}
		full, used := fullSynthesis(t, cfg, lib, fitted, f)
		comparePriceClasses(t, name, got, full, used)
	}
}

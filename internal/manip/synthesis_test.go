package manip

import (
	"testing"

	"lumos/internal/analysis"
	"lumos/internal/cluster"
	"lumos/internal/execgraph"
	"lumos/internal/kernelmodel"
	"lumos/internal/model"
	"lumos/internal/replay"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// predictViaTrace is the trace form of PredictGraphWith: it runs the same
// deterministic generator through cluster.Run, materializing the target's
// execution as Kineto-style traces, and returns them with the predictor's
// library hit/miss counts.
func predictViaTrace(t *testing.T, req Request, lib *Library, fitted *kernelmodel.Fitted, c topology.Fabric) (*trace.Multi, *Predictor) {
	t.Helper()
	if err := req.Validate(); err != nil {
		t.Fatal(err)
	}
	pred := &Predictor{Lib: lib, Fitted: fitted}
	out, err := cluster.Run(req.Target, deterministicSim(c, req.Target.Map.WorldSize(), pred))
	if err != nil {
		t.Fatal(err)
	}
	return out, pred
}

// TestDirectSynthesisMatchesTraceRoundTrip is the equivalence acceptance
// test for the compile-once pipeline: for every fig7/fig8-style deployment
// manipulation, generating the target execution graph directly
// (PredictGraphWith) must produce the exact same predicted iteration time,
// execution breakdown and library hit/miss counts as materializing a
// synthetic trace and measuring it (predictViaTrace). The two paths share
// one generator core, so this holds to the nanosecond.
func TestDirectSynthesisMatchesTraceRoundTrip(t *testing.T) {
	cfg, profiled := base(t)
	topo := topology.H100Cluster(32) // large enough for every target below
	lib := BuildLibrary(profiled, topo)
	fitted := mustFit(t, profiled, topo)

	v1 := cfg
	v1.Arch = model.GPT3_V1()
	v3 := cfg
	v3.Arch = model.GPT3_V3()

	cases := []struct {
		name string
		req  Request
	}{
		{"identity", Request{Base: cfg, Target: cfg}},
		{"fig7a-scale-dp", ScaleDP(cfg, 4)},
		{"fig7b-scale-pp", ScalePP(cfg, 4)},
		{"fig7c-scale-dp-pp", Scale3D(cfg, 4, 4)},
		{"fig8-arch-v1", Request{Base: cfg, Target: v1}},
		{"fig8-arch-v3", Request{Base: cfg, Target: v3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			viaTrace, used := predictViaTrace(t, tc.req, lib, fitted, topo)
			viaGraph, err := PredictGraphWith(tc.req, lib, fitted, topo)
			if err != nil {
				t.Fatal(err)
			}
			if viaGraph.Iteration != viaTrace.Duration() {
				t.Fatalf("iteration: synthesis %d != trace round trip %d",
					viaGraph.Iteration, viaTrace.Duration())
			}
			if viaGraph.LibraryHits != used.Hits || viaGraph.LibraryMisses != used.Misses {
				t.Fatalf("calibration use diverged: synthesis %d/%d, trace %d/%d",
					viaGraph.LibraryHits, viaGraph.LibraryMisses, used.Hits, used.Misses)
			}
			if bg, bt := analysis.GraphBreakdown(viaGraph.Graph), analysis.MultiBreakdown(viaTrace); bg != bt {
				t.Fatalf("breakdown: synthesis %+v != trace %+v", bg, bt)
			}
			if err := viaGraph.Graph.Validate(); err != nil {
				t.Fatalf("synthesized graph invalid: %v", err)
			}
		})
	}
}

// TestSynthesizedGraphReplays verifies the synthesized graph is a working
// simulation input, not just a timestamp container: replaying it with its
// own durations must land within 1% of its recorded makespan (the paper's
// self-replay sanity check, applied to the trace-free path), and a what-if
// retiming on it must replay cleanly.
func TestSynthesizedGraphReplays(t *testing.T) {
	cfg, profiled := base(t)
	topo := topology.H100Cluster(cfg.Map.WorldSize())
	res := predict(t, Request{Base: cfg, Target: cfg}, profiled, topo)
	g := res.Graph
	rep, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rel := float64(rep.Makespan-res.Iteration) / float64(res.Iteration)
	if rel < -0.01 || rel > 0.01 {
		t.Fatalf("self-replay of synthesized graph off by %.2f%% (%d vs %d)",
			100*rel, rep.Makespan, res.Iteration)
	}
	// Dependencies must hold in the replayed schedule.
	for i := range g.Tasks {
		for _, o := range g.Tasks[i].Out {
			if rep.End[i] > rep.Start[o] {
				t.Fatalf("edge %d→%d violated in replay of synthesized graph", i, o)
			}
		}
	}
	// A retiming what-if composes with the synthesized graph: halving GEMM
	// time must strictly shorten the replayed iteration.
	tm := replay.NewTimings(g)
	analysis.ScaleDurations(g, tm, func(tk *execgraph.Task) bool {
		return tk.Class == trace.KCGEMM
	}, 0.5)
	scaled, err := replay.Compile(g, replay.DefaultOptions()).Run(tm, replay.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	if faster := scaled.Makespan; faster >= rep.Makespan {
		t.Fatalf("2x GEMMs on synthesized graph not faster: %d vs %d", faster, rep.Makespan)
	}
}

package manip

import (
	"testing"

	"lumos/internal/analysis"
	"lumos/internal/cluster"
	"lumos/internal/kernelmodel"
	"lumos/internal/metrics"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// profileBase simulates the 15B 2x2x2 baseline once per test binary.
var baseProfile *trace.Multi

func base(t *testing.T) (parallel.Config, *trace.Multi) {
	t.Helper()
	m, err := topology.NewMapping(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = 8
	if baseProfile == nil {
		out, err := cluster.Run(cfg, cluster.DefaultSimConfig(m.WorldSize(), 77))
		if err != nil {
			t.Fatal(err)
		}
		baseProfile = out
	}
	return cfg, baseProfile
}

func TestRequestValidation(t *testing.T) {
	cfg, _ := base(t)
	// TP change is the paper's explicit non-goal.
	bad := cfg
	bad.Map.TP = 4
	if err := (Request{Base: cfg, Target: bad}).Validate(); err == nil {
		t.Fatal("TP change must be rejected")
	}
	if err := ScaleDP(cfg, 4).Validate(); err != nil {
		t.Fatal(err)
	}
	// Invalid target (layers not divisible) rejected.
	badPP := ScalePP(cfg, 5)
	if err := badPP.Validate(); err == nil {
		t.Fatal("PP=5 with 48 layers must be rejected")
	}
}

func TestBuildLibrary(t *testing.T) {
	cfg, profiled := base(t)
	lib := BuildLibrary(profiled, topology.H100Cluster(cfg.Map.WorldSize()))
	if nc, nm := len(lib.compute), len(lib.comm); nc == 0 || nm == 0 {
		t.Fatalf("library sizes: compute=%d comm=%d", nc, nm)
	}
}

func TestIdentityManipulationReplaysMeasurements(t *testing.T) {
	// Predicting the SAME configuration must hit the library for every
	// kernel and land close to the recorded iteration time.
	cfg, profiled := base(t)
	topo := topology.H100Cluster(cfg.Map.WorldSize())
	res := predict(t, Request{Base: cfg, Target: cfg}, profiled, topo)
	if res.LibraryMisses != 0 {
		t.Fatalf("identity manipulation missed the library %d times", res.LibraryMisses)
	}
	rel := metrics.RelErr(res.Iteration, profiled.Duration())
	if rel > 5 {
		t.Fatalf("identity prediction err %.1f%% (pred %.1fms, recorded %.1fms)",
			rel, analysis.Millis(res.Iteration), analysis.Millis(profiled.Duration()))
	}
}

func TestScaleDPOnlyRepricesDPComm(t *testing.T) {
	cfg, profiled := base(t)
	topo := topology.H100Cluster(64)
	res := predict(t, ScaleDP(cfg, 8), profiled, topo)
	// Paper: local computation unchanged — misses must be comm-only and
	// small (the DP collectives).
	if res.LibraryMisses == 0 {
		t.Fatal("DP scaling must re-price the DP collectives")
	}
	if res.LibraryMisses > 2000 {
		t.Fatalf("DP scaling re-priced %d kernels; expected only the DP collectives", res.LibraryMisses)
	}
	if res.Graph.NumRanks != 32 {
		t.Fatalf("target world = %d", res.Graph.NumRanks)
	}
}

func TestScaleDPAccuracy(t *testing.T) {
	cfg, profiled := base(t)
	topo := topology.H100Cluster(32)
	res := predict(t, ScaleDP(cfg, 4), profiled, topo)
	actualCfg := cfg
	actualCfg.Map.DP = 4
	sc := cluster.DefaultSimConfig(32, 555)
	actual, err := cluster.Run(actualCfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	rel := metrics.RelErr(res.Iteration, actual.Duration())
	if rel > 10 {
		t.Fatalf("DP scale-out err %.1f%% (pred %.1fms, actual %.1fms)",
			rel, analysis.Millis(res.Iteration), analysis.Millis(actual.Duration()))
	}
}

func TestScalePPAccuracy(t *testing.T) {
	cfg, profiled := base(t)
	topo := topology.H100Cluster(cfg.Map.WorldSize() * 2)
	res := predict(t, ScalePP(cfg, 4), profiled, topo)
	target := cfg
	target.Map.PP = 4
	actual, err := cluster.Run(target, cluster.DefaultSimConfig(target.Map.WorldSize(), 556))
	if err != nil {
		t.Fatal(err)
	}
	rel := metrics.RelErr(res.Iteration, actual.Duration())
	if rel > 10 {
		t.Fatalf("PP scale-out err %.1f%%", rel)
	}
}

func TestChangeArchAccuracy(t *testing.T) {
	cfg, profiled := base(t)
	target := cfg
	target.Arch = model.GPT3_V1() // more layers, same widths
	topo := topology.H100Cluster(cfg.Map.WorldSize())
	res := predict(t, Request{Base: cfg, Target: target}, profiled, topo)
	actual, err := cluster.Run(target, cluster.DefaultSimConfig(target.Map.WorldSize(), 557))
	if err != nil {
		t.Fatal(err)
	}
	rel := metrics.RelErr(res.Iteration, actual.Duration())
	if rel > 10 {
		t.Fatalf("arch-change err %.1f%% (pred %.1f, actual %.1f)",
			rel, analysis.Millis(res.Iteration), analysis.Millis(actual.Duration()))
	}
	// V1 is deeper → prediction must be slower than the base.
	if res.Iteration <= profiled.Duration() {
		t.Fatal("a 64-layer variant cannot be faster than the 48-layer base")
	}
}

func TestPredictorCounters(t *testing.T) {
	cfg, profiled := base(t)
	topo := topology.H100Cluster(cfg.Map.WorldSize())
	lib := BuildLibrary(profiled, topo)
	p := &Predictor{Lib: lib, Fitted: mustFit(t, profiled, topo)}
	// A key that exists.
	var hit trace.Event
	for i := range profiled.Ranks[0].Events {
		e := &profiled.Ranks[0].Events[i]
		if e.Cat == trace.CatKernel && e.Class == trace.KCGEMM {
			hit = *e
			break
		}
	}
	p.Compute(hit.Class, hit.FLOPs, hit.Bytes)
	if p.Hits != 1 || p.Misses != 0 {
		t.Fatalf("hit counters: %d/%d", p.Hits, p.Misses)
	}
	p.Compute(trace.KCGEMM, hit.FLOPs+12345, hit.Bytes)
	if p.Misses != 1 {
		t.Fatalf("miss counters: %d/%d", p.Hits, p.Misses)
	}
}

// predict calibrates a library and a fitted model on the profile and
// predicts the request on fabric c.
func predict(t *testing.T, req Request, profiled *trace.Multi, c topology.Fabric) *GraphResult {
	t.Helper()
	res, err := PredictGraphWith(req, BuildLibrary(profiled, c), mustFit(t, profiled, c), c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustFit(t *testing.T, m *trace.Multi, c topology.Fabric) *kernelmodel.Fitted {
	t.Helper()
	f, err := kernelmodel.Fit([]*trace.Multi{m}, c, kernelmodel.NewOracleFabric(c))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

package lumos

import (
	"context"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

func sweepBase(t *testing.T) Config {
	t.Helper()
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Microbatches = 4
	return cfg
}

// campaignScenarios is a 9-point campaign over a small GPT-3 15B design
// space: a TP×PP×DP grid, an architecture variant, two kernel-level
// counterfactuals, the baseline, and one infeasible point (TP change).
func campaignScenarios() []Scenario {
	scenarios := GridSweep(GPT3_15B(), []int{2}, []int{1, 2}, []int{1, 2})
	return append(scenarios,
		BaselineScenario(),
		ArchScenario(GPT3_V1()),
		ClassScaleScenario(KCGEMM, 0.5),
		FusionScenario(),
		DeploymentScenario(GPT3_15B(), 4, 2, 2), // TP 2→4: infeasible
	)
}

// TestEvaluateRankedGrid is the acceptance test for the campaign API: a
// ≥8-scenario sweep from a single base profile — exactly one ground-truth
// profile and one kernel-library calibration — returning results ranked by
// predicted iteration time with infeasible points last.
func TestEvaluateRankedGrid(t *testing.T) {
	ctx := context.Background()
	tk := New(WithSeed(42))
	base := sweepBase(t)

	scenarios := campaignScenarios()
	if len(scenarios) < 8 {
		t.Fatalf("campaign has %d scenarios, want >= 8", len(scenarios))
	}
	sweep, err := tk.Evaluate(ctx, base, scenarios...)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != len(scenarios) {
		t.Fatalf("%d results for %d scenarios", len(sweep.Results), len(scenarios))
	}

	profiles, libraryBuilds := tk.Counters()
	if profiles != 1 {
		t.Errorf("campaign ran %d profiles, want exactly 1", profiles)
	}
	if libraryBuilds != 1 {
		t.Errorf("campaign ran %d library calibrations, want exactly 1", libraryBuilds)
	}

	// Ranking: feasible ascending by iteration, infeasible at the end.
	seenInfeasible := false
	for i, r := range sweep.Results {
		if !r.Feasible() {
			seenInfeasible = true
			continue
		}
		if seenInfeasible {
			t.Fatalf("feasible result %q ranked after an infeasible one", r.Name)
		}
		if r.Iteration <= 0 {
			t.Errorf("%q: no predicted iteration", r.Name)
		}
		if i > 0 && sweep.Results[i-1].Feasible() && sweep.Results[i-1].Iteration > r.Iteration {
			t.Errorf("ranking violated at %d: %d > %d", i, sweep.Results[i-1].Iteration, r.Iteration)
		}
		if r.Speedup <= 0 {
			t.Errorf("%q: speedup not derived", r.Name)
		}
	}
	if !seenInfeasible {
		t.Fatal("TP-change scenario should be infeasible")
	}

	// The baseline scenario must agree exactly with the sweep's base point.
	var baseline *ScenarioResult
	for i := range sweep.Results {
		if sweep.Results[i].Kind == "baseline" {
			baseline = &sweep.Results[i]
		}
	}
	if baseline == nil {
		t.Fatal("baseline scenario missing from results")
	}
	if baseline.Iteration != sweep.Base.Iteration || baseline.Speedup != 1 {
		t.Errorf("baseline = %d (speedup %.3f), base point = %d",
			baseline.Iteration, baseline.Speedup, sweep.Base.Iteration)
	}

	// Making GEMMs 2x faster must beat the baseline; growing DP must cost
	// more total GPU-seconds than staying put.
	for _, r := range sweep.Results {
		switch {
		case r.Kind == "whatif-scale":
			if r.Iteration >= baseline.Iteration {
				t.Errorf("2x-faster GEMMs (%d) not faster than baseline (%d)", r.Iteration, baseline.Iteration)
			}
		case r.Kind == "deploy" && r.World > baseline.World && r.Feasible():
			if r.CostDelta <= -1 {
				t.Errorf("%q: cost delta %.3f out of range", r.Name, r.CostDelta)
			}
		}
	}
}

// TestEvaluateDeterminism verifies the sweep contract: identical ranked
// results whether scenarios run serially or on an 8-wide worker pool.
func TestEvaluateDeterminism(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)

	run := func(workers int) *SweepResult {
		t.Helper()
		tk := New(WithConcurrency(workers), WithSeed(42))
		sweep, err := tk.Evaluate(ctx, base, campaignScenarios()...)
		if err != nil {
			t.Fatal(err)
		}
		return sweep
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial.Results, wide.Results) {
		for i := range serial.Results {
			a, b := serial.Results[i], wide.Results[i]
			if !reflect.DeepEqual(a, b) {
				t.Errorf("rank %d: serial %q iter=%d vs wide %q iter=%d", i, a.Name, a.Iteration, b.Name, b.Iteration)
			}
		}
		t.Fatal("sweep results depend on worker count")
	}
}

// TestPooledSimulatorDeterminism stresses the simulator pool: a campaign of
// many what-if retimings (which all replay the shared base graph on pooled,
// state-reusing simulators) must produce identical ranked results serially
// and on an 8-wide worker pool.
func TestPooledSimulatorDeterminism(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)

	scenarios := []Scenario{
		BaselineScenario(),
		FusionScenario(),
	}
	for _, class := range []KernelClass{KCGEMM, KCAttention, KCElementwise, KCNorm, KCComm} {
		scenarios = append(scenarios,
			ClassScaleScenario(class, 0.5),
			ClassScaleScenario(class, 0.9),
		)
	}

	run := func(workers int) *SweepResult {
		t.Helper()
		tk := New(WithConcurrency(workers), WithSeed(42))
		sweep, err := tk.Evaluate(ctx, base, scenarios...)
		if err != nil {
			t.Fatal(err)
		}
		return sweep
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial.Results, wide.Results) {
		t.Fatal("pooled-simulator sweep results depend on worker count")
	}
}

// TestScenarioMemoization verifies sweep-level fingerprinting: duplicate
// grid points — within one EvaluateState call and across calls on the same
// campaign state — are served from the cache, with results identical to
// freshly computed ones, and without any further profiling or calibration.
func TestScenarioMemoization(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)
	scenarios := campaignScenarios()
	// Duplicate grid points, spelled two ways that resolve to the same
	// target deployment.
	scenarios = append(scenarios,
		ScaleDPScenario(2),
		DeploymentScenario(GPT3_15B(), 2, 2, 2),
		// Same target as the base spelled under two different scenario
		// kinds: the cache must never let one serve the other's result.
		ArchScenario(GPT3_15B()),
		DeploymentScenario(GPT3_15B(), 2, 2, 1),
	)

	tk := New(WithSeed(42))
	st, err := tk.Prepare(ctx, sweepBase(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	first, err := tk.EvaluateState(ctx, st, scenarios...)
	if err != nil {
		t.Fatal(err)
	}
	entries := st.CacheStats().MemoEntries
	if entries == 0 {
		t.Fatal("no scenario results were memoized")
	}

	second, err := tk.EvaluateState(ctx, st, scenarios...)
	if err != nil {
		t.Fatal(err)
	}
	if hits := st.CacheStats().MemoHits; hits < entries {
		t.Fatalf("second sweep hit the cache %d times, want >= %d", hits, entries)
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("memoized sweep diverged from its first evaluation")
	}
	// Kinds survive cache hits: the arch-flavored and deploy-flavored
	// spellings of the base target must each keep their own kind.
	kinds := map[string]int{}
	for _, r := range second.Results {
		kinds[r.Kind]++
	}
	if kinds["arch"] != 2 { // ArchScenario(V1) from the base campaign + ArchScenario(15B)
		t.Fatalf("an arch scenario lost its kind across the cache: %v", kinds)
	}
	if profiles, libs := tk.Counters(); profiles != 1 || libs != 1 {
		t.Fatalf("memoized re-sweep re-calibrated: %d profiles, %d library builds", profiles, libs)
	}

	// A fresh campaign sharing nothing, evaluating the scenarios in reverse
	// order on one worker, computes the other spelling of each duplicate
	// and serves the first from its memo; it must agree on every row.
	reversed := slices.Clone(scenarios)
	slices.Reverse(reversed)
	fresh, err := New(WithSeed(42), WithConcurrency(1)).Evaluate(ctx, base, reversed...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first.Results, fresh.Results) {
		t.Fatal("memoized and freshly computed predictions disagree")
	}
}

// cancelScenario cancels its sweep's context from inside Run.
type cancelScenario struct {
	cancel context.CancelFunc
	ran    *atomic.Int32
}

func (c cancelScenario) Name() string { return "cancel" }

func (c cancelScenario) Run(ctx context.Context, base *BaseState) (ScenarioResult, error) {
	c.ran.Add(1)
	c.cancel()
	return ScenarioResult{Name: "cancel", Iteration: base.Iteration}, nil
}

// countScenario records whether it ran at all.
type countScenario struct {
	name string
	ran  *atomic.Int32
}

func (c countScenario) Name() string { return c.name }

func (c countScenario) Run(context.Context, *BaseState) (ScenarioResult, error) {
	c.ran.Add(1)
	return ScenarioResult{Name: c.name}, nil
}

// TestEvaluateCancellationMidSweep cancels the context from inside the
// first scenario of a serial sweep: Evaluate must return the context error
// and the remaining scenarios must never run. Custom Scenario
// implementations are part of the public contract, so the probes are
// user-defined types.
func TestEvaluateCancellationMidSweep(t *testing.T) {
	tk := New(WithConcurrency(1))
	base := sweepBase(t)
	profiled, err := tk.Profile(context.Background(), base, 42)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelRuns, laterRuns atomic.Int32
	scenarios := []Scenario{cancelScenario{cancel: cancel, ran: &cancelRuns}}
	for i := 0; i < 6; i++ {
		scenarios = append(scenarios, countScenario{name: "later", ran: &laterRuns})
	}

	sweep, err := tk.EvaluateTraces(ctx, base, profiled, scenarios...)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sweep != nil {
		t.Fatal("canceled sweep must not return partial results")
	}
	if got := cancelRuns.Load(); got != 1 {
		t.Fatalf("cancel scenario ran %d times", got)
	}
	if got := laterRuns.Load(); got != 0 {
		t.Fatalf("%d scenarios ran after cancellation", got)
	}
}

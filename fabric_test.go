// Fabric-layer regression tests: the hierarchical pricing path must
// reproduce the flat alpha-beta path bit-for-bit on the paper's two-tier
// testbed, and fabric/degradation campaigns must be deterministic under any
// worker count.
package lumos

import (
	"context"
	"reflect"
	"testing"
)

// fig7Fig8Scenarios is the manipulation set behind the paper's Figure 7
// (DP/PP/3D scaling) and Figure 8 (architecture variants), plus the base
// point.
func fig7Fig8Scenarios() []Scenario {
	return []Scenario{
		BaselineScenario(),
		ScaleDPScenario(4),
		ScalePPScenario(4),
		Scale3DScenario(4, 4),
		ArchScenario(GPT3_V1()),
		ArchScenario(GPT3_V3()),
	}
}

// TestHierPricerFig7Fig8Equivalence is the equivalence regression from the
// fabric refactor: running the entire predict pipeline — ground-truth
// profiling, kernel-library and fitted-model calibration, and every
// fig7/fig8 manipulation — with the hierarchical pricer bound to the
// two-tier H100 fabric must reproduce the flat alpha-beta model's
// predictions bit-identically.
func TestHierPricerFig7Fig8Equivalence(t *testing.T) {
	ctx := context.Background()
	base, err := DeploymentConfig(GPT3_15B(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base.Microbatches = 8

	flatTK := New(WithSeed(42)) // default: flat H100 cluster + alpha-beta Model
	hierTK := New(WithSeed(42), WithFabric(TwoTierFabric(H100Cluster(base.Map.WorldSize()))))

	flat, err := flatTK.Evaluate(ctx, base, fig7Fig8Scenarios()...)
	if err != nil {
		t.Fatal(err)
	}
	hier, err := hierTK.Evaluate(ctx, base, fig7Fig8Scenarios()...)
	if err != nil {
		t.Fatal(err)
	}

	if flat.Base.Iteration != hier.Base.Iteration {
		t.Fatalf("base profiles diverge: flat %d, hier %d", flat.Base.Iteration, hier.Base.Iteration)
	}
	if len(flat.Results) != len(hier.Results) {
		t.Fatalf("result counts diverge: %d vs %d", len(flat.Results), len(hier.Results))
	}
	for i := range flat.Results {
		f, h := flat.Results[i], hier.Results[i]
		if f.Name != h.Name || f.Iteration != h.Iteration || f.Breakdown != h.Breakdown ||
			f.LibraryHits != h.LibraryHits || f.LibraryMisses != h.LibraryMisses {
			t.Errorf("rank %d: flat %q iter=%d (hits %d/misses %d) vs hier %q iter=%d (hits %d/misses %d)",
				i, f.Name, f.Iteration, f.LibraryHits, f.LibraryMisses,
				h.Name, h.Iteration, h.LibraryHits, h.LibraryMisses)
		}
		if !f.Feasible() {
			t.Errorf("%q infeasible: %s", f.Name, f.Err)
		}
	}
}

// TestFabricSweepDeterministicRanked is the acceptance test for fabric
// what-ifs: a campaign combining a deployment grid with 2 fabrics × 2
// degradation factors (plus a base-fabric degradation) returns identical
// ranked results serially and on an 8-wide worker pool, with every fabric
// point feasible and the degraded points never faster than their nominal
// fabric.
func TestFabricSweepDeterministicRanked(t *testing.T) {
	ctx := context.Background()
	base, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	base.Microbatches = 4
	world := base.Map.WorldSize()

	scenarios := func() []Scenario {
		s := GridSweep(GPT3_15B(), []int{2}, []int{1, 2}, []int{1, 2})
		s = append(s, FabricSweep(
			[]Fabric{NVLDomainFabric(world), OversubscribedFabric(world, 4)},
			[]float64{1, 0.5})...)
		s = append(s, BaselineScenario(), DegradeLinksScenario(1, 0.5))
		return s
	}

	run := func(workers int) *SweepResult {
		t.Helper()
		tk := New(WithConcurrency(workers), WithSeed(42))
		sweep, err := tk.Evaluate(ctx, base, scenarios()...)
		if err != nil {
			t.Fatal(err)
		}
		return sweep
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial.Results, wide.Results) {
		t.Fatal("fabric sweep results depend on worker count")
	}

	byName := map[string]ScenarioResult{}
	fabricPoints := 0
	for _, r := range serial.Results {
		if r.Kind == "fabric" {
			fabricPoints++
			if !r.Feasible() {
				t.Errorf("fabric point %q infeasible: %s", r.Name, r.Err)
			}
			byName[r.Name] = r
		}
	}
	if fabricPoints != 5 { // 2 fabrics × 2 factors + base-fabric degradation
		t.Fatalf("campaign evaluated %d fabric points, want 5", fabricPoints)
	}
	for _, pair := range [][2]string{
		{"nvl72", "nvl72 bw*0.5"},
		{"spine4", "spine4 bw*0.5"},
	} {
		nominal, degraded := byName[pair[0]], byName[pair[1]]
		if degraded.Iteration < nominal.Iteration {
			t.Errorf("%s (%d) predicts faster than %s (%d)",
				pair[1], degraded.Iteration, pair[0], nominal.Iteration)
		}
	}
}

// TestWithPricerSwapsBackend verifies the pricer is a genuinely swappable
// axis: binding the phased hierarchical backend changes node-spanning
// collective prices (and thus the profile), while remaining deterministic.
func TestWithPricerSwapsBackend(t *testing.T) {
	ctx := context.Background()
	base, err := DeploymentConfig(GPT3_15B(), 2, 2, 4) // DP groups span nodes
	if err != nil {
		t.Fatal(err)
	}
	base.Microbatches = 4
	fabric := OversubscribedFabric(base.Map.WorldSize(), 4)

	profile := func(pricer func(Fabric) Pricer) *Multi {
		t.Helper()
		opts := []Option{WithSeed(7), WithFabric(fabric)}
		if pricer != nil {
			opts = append(opts, WithPricer(pricer))
		}
		tk := New(opts...)
		m, err := tk.Profile(ctx, base, 7)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	bottleneck := profile(nil)
	phased := profile(NewPhasedPricer)
	phased2 := profile(NewPhasedPricer)
	if bottleneck.Duration() == phased.Duration() {
		t.Fatal("phased pricer did not change node-spanning collective prices")
	}
	if phased.Duration() != phased2.Duration() {
		t.Fatal("phased profiling is not deterministic")
	}
}

// TestIdentityFabricMatchesIdentityDeploy pins the fabric-transfer
// semantics: a fabric what-if targeting the very fabric the profile was
// collected on (spelled as the preset, or as a 1.0 degradation) transfers
// every measured communication duration unchanged, so its prediction is
// bit-identical to the identity deployment prediction and the points share
// a common footing with the rest of the campaign.
func TestIdentityFabricMatchesIdentityDeploy(t *testing.T) {
	ctx := context.Background()
	base, err := DeploymentConfig(GPT3_15B(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base.Microbatches = 4

	tk := New(WithSeed(42))
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := tk.EvaluateState(ctx, st,
		DeployScenario("identity", func(c Config) Config { return c }),
		DegradeLinksScenario(1),
		FabricScenario("same-fabric", H100Cluster(base.Map.WorldSize())),
	)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ScenarioResult{}
	for _, r := range sweep.Results {
		if !r.Feasible() {
			t.Fatalf("%q infeasible: %s", r.Name, r.Err)
		}
		byName[r.Name] = r
	}
	identity := byName["identity"]
	if identity.LibraryMisses != 0 {
		t.Fatalf("identity deploy missed the library %d times", identity.LibraryMisses)
	}
	for _, name := range []string{"degrade=[1]", "same-fabric"} {
		if got := byName[name].Iteration; got != identity.Iteration {
			t.Errorf("%s predicts %d, identity deploy predicts %d — fabric transfer broke the common footing",
				name, got, identity.Iteration)
		}
	}
}

// TestSweepPlanFabricAgreement is the one-answer-per-question gate for
// fabric what-ifs on the fig7 and fig8 base profiles (TP2×PP2×DP2, 8
// microbatches, seed 42): a deployment priced on a fabric gets the same
// number, bit for bit, from a sweep's FabricSweep and DegradeLinksScenario
// rows as from the plan point with the same fabric and degradation, and no
// degraded point is predicted faster than its undegraded twin.
func TestSweepPlanFabricAgreement(t *testing.T) {
	for _, c := range []struct {
		name string
		arch Arch
	}{{"fig7", GPT3_15B()}, {"fig8", GPT3_V3()}} {
		t.Run(c.name, func(t *testing.T) { checkSweepPlanAgreement(t, c.arch) })
	}
}

// checkSweepPlanAgreement runs the agreement check on one base profile.
// Fabric rows price their campaign's own deployment, so each grid
// deployment gets a campaign state over the one base profile; the plan
// searches the whole grid from the base campaign itself.
func checkSweepPlanAgreement(t *testing.T, arch Arch) {
	ctx := context.Background()
	base, err := DeploymentConfig(arch, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base.Microbatches = 8
	tk := New(WithSeed(42), WithConcurrency(4))
	traces, err := tk.Profile(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tk.PrepareTraces(ctx, base, traces)
	if err != nil {
		t.Fatal(err)
	}

	fabrics := []Fabric{nil, NVLDomainFabric(32), OversubscribedFabric(32, 4)}
	factors := []float64{1, 0.97, 0.6}
	var degrade [][]float64
	for _, x := range factors {
		degrade = append(degrade, NetworkDegradeFactors(x))
	}
	res, err := tk.PlanState(ctx, st, Space{
		PP:         []int{2, 8},
		DP:         []int{1, 2},
		Microbatch: []int{4},
		Schedules:  []string{"1f1b", "gpipe"},
		Fabrics:    fabrics,
		Degrade:    degrade,
	}, WithPlanStrategy(ExhaustiveStrategy()),
		WithMemoryModel(MemoryModel{GPUMemBytes: 192 << 30, ZeRO: ZeROOptimizer}))
	if err != nil {
		t.Fatal(err)
	}
	plan := map[string]PlanEvaluated{}
	for _, e := range append(append([]PlanEvaluated{}, res.Frontier...), res.Dominated...) {
		plan[e.Point.Key()] = e
	}
	if len(plan) != res.Stats.Feasible {
		t.Fatalf("plan evaluated %d of %d feasible points", len(plan), res.Stats.Feasible)
	}

	rows := 0
	for _, pp := range []int{2, 8} {
		for _, dp := range []int{1, 2} {
			for _, sched := range []string{"1f1b", "gpipe"} {
				cfg, err := WithScheduleSpec(base, sched)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Map.PP, cfg.Map.DP, cfg.Microbatches = pp, dp, 4
				point := func(f Fabric, d []float64) PlanPoint {
					return PlanPoint{TP: 2, PP: pp, DP: dp, Microbatches: 4, Schedule: sched, Fabric: f, Degrade: d}
				}
				if _, ok := plan[point(nil, nil).Key()]; !ok {
					continue // the schedule cannot run this pipeline shape
				}
				dst, err := tk.PrepareTraces(ctx, cfg, traces)
				if err != nil {
					t.Fatal(err)
				}
				var scenarios []Scenario
				var points []PlanPoint
				for _, f := range fabrics {
					for i, x := range factors {
						scenarios = append(scenarios, FabricSweep([]Fabric{f}, []float64{x})...)
						points = append(points, point(f, degrade[i]))
					}
				}
				for _, d := range degrade[1:] {
					scenarios = append(scenarios, DegradeLinksScenario(d...))
					points = append(points, point(nil, d))
				}
				sweep, err := tk.EvaluateState(ctx, dst, scenarios...)
				if err != nil {
					t.Fatal(err)
				}
				byName := map[string]ScenarioResult{}
				for _, r := range sweep.Results {
					byName[r.Name] = r
				}
				for i, sc := range scenarios {
					r := byName[sc.Name()]
					e, ok := plan[points[i].Key()]
					switch {
					case !r.Feasible():
						t.Errorf("%+v %q infeasible: %s", cfg.Map, r.Name, r.Err)
					case !ok:
						t.Errorf("plan did not simulate %s", points[i].Key())
					case r.Iteration != e.Iteration:
						t.Errorf("%+v: sweep row %q predicts %d, plan point %s predicts %d",
							cfg.Map, r.Name, r.Iteration, e.Point.Key(), e.Iteration)
					}
					rows++
				}
			}
		}
	}
	if perDeployment := len(fabrics)*len(factors) + 2; rows < 6*perDeployment {
		t.Fatalf("compared only %d rows", rows)
	}

	for _, e := range plan {
		if len(e.Point.Degrade) == 0 {
			continue
		}
		twin := e.Point
		twin.Degrade = nil
		if u := plan[twin.Key()]; e.Iteration < u.Iteration {
			t.Errorf("%s predicts %d, faster than undegraded %s at %d",
				e.Point.Key(), e.Iteration, twin.Key(), u.Iteration)
		}
	}
}

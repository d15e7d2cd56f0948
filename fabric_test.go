// Fabric-layer regression tests: the default toolkit's fig7/fig8
// predictions on the paper's two-tier testbed are pinned bit for bit, and
// fabric/degradation campaigns must be deterministic under any worker
// count.
package lumos

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"lumos/internal/trace"
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

// TestHierPricerFig7Fig8Equivalence is the golden regression of the one
// interconnect model: the whole predict pipeline — ground-truth profiling,
// kernel-library and fitted-model calibration, and every fig7/fig8
// manipulation — on the default toolkit (the flat H100 preset priced by
// the hierarchical bottleneck pricer) must reproduce, bit for bit, the
// answers the retired flat alpha-beta Model path gave.
func TestHierPricerFig7Fig8Equivalence(t *testing.T) {
	ctx := context.Background()
	base, err := DeploymentConfig(GPT3_15B(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base.Microbatches = 8

	sweep, err := New(WithSeed(42)).Evaluate(ctx, base, fig7Fig8Scenarios()...)
	if err != nil {
		t.Fatal(err)
	}
	const wantBase trace.Dur = 960_756_909
	if sweep.Base.Iteration != wantBase {
		t.Fatalf("base iteration %d, want %d", sweep.Base.Iteration, wantBase)
	}
	type golden struct {
		name         string
		iteration    trace.Dur
		breakdown    Breakdown
		hits, misses int
	}
	// Ranked fastest first, as Evaluate returns them.
	want := []golden{
		{"pp=4", 667_260_032, Breakdown{ExposedCompute: 24_473_603, Overlapped: 354_054_951, ExposedComm: 233_456_373, Other: 248_601, Total: 612_233_528}, 34272, 194},
		{"pp=4,dp=4", 723_239_641, Breakdown{ExposedCompute: 24_473_603, Overlapped: 354_054_951, ExposedComm: 286_082_821, Other: 248_601, Total: 664_859_976}, 68544, 290},
		{"baseline", 960_756_909, Breakdown{ExposedCompute: 88_015_454, Overlapped: 674_110_360, ExposedComm: 164_936_332, Other: 245_885, Total: 927_308_031}, 0, 0},
		{"dp=4", 1_207_188_323, Breakdown{ExposedCompute: 56_986_318, Overlapped: 702_990_118, ExposedComm: 407_992_556, Other: 248_600, Total: 1_168_217_592}, 68384, 98},
		{"arch=GPT-3 V1", 1_252_332_244, Breakdown{ExposedCompute: 122_062_111, Overlapped: 887_256_880, ExposedComm: 199_671_168, Other: 248_600, Total: 1_209_238_759}, 45538, 48},
		{"arch=GPT-3 V3", 1_905_092_756, Breakdown{ExposedCompute: 190_328_970, Overlapped: 1_387_885_768, ExposedComm: 260_458_798, Other: 248_601, Total: 1_838_922_137}, 1616, 32674},
	}
	if len(sweep.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(sweep.Results), len(want))
	}
	for i, w := range want {
		r := sweep.Results[i]
		if !r.Feasible() {
			t.Errorf("%q infeasible: %s", r.Name, r.Err)
		}
		got := golden{r.Name, r.Iteration, r.Breakdown, r.LibraryHits, r.LibraryMisses}
		if got != w {
			t.Errorf("rank %d:\n got %+v\nwant %+v", i, got, w)
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

// TestFabricPresetRejectsNonPhysical is the preset resolver's contract:
// every accepted name yields a fabric that passes Validate, and every
// rejected one — an unknown name, a non-finite or sub-1 oversubscription,
// or one that slows the spine below the link-bandwidth floor — fails with
// the preset menu.
func TestFabricPresetRejectsNonPhysical(t *testing.T) {
	for _, tc := range []struct {
		name  string
		world int
		ok    bool
	}{
		{"flat", 64, true},
		{"h100", 3, true},
		{"nvl72", 64, true},
		{"spine", 64, true},
		{" Spine2.5 ", 64, true},
		{"spine4", 512, true},
		{"spine42000", 512, true}, // 42 GB/s ÷ 42000 is exactly the 1 MB/s floor
		{"spine42001", 512, false},
		{"spine1e12", 512, false},
		{"spine1e12", 64, false},
		{"spineinf", 64, false},
		{"spine+Inf", 64, false},
		{"spine-inf", 64, false},
		{"spineNaN", 64, false},
		{"spine0.5", 64, false},
		{"spinex", 64, false},
		{"warpdrive", 64, false},
	} {
		f, err := FabricPreset(tc.name, tc.world)
		if !tc.ok {
			if err == nil {
				t.Errorf("FabricPreset(%q, %d) accepted as %s", tc.name, tc.world, f.FabricName())
			} else if !strings.Contains(err.Error(), "valid presets") {
				t.Errorf("FabricPreset(%q, %d): error lacks the preset menu: %v", tc.name, tc.world, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("FabricPreset(%q, %d): %v", tc.name, tc.world, err)
			continue
		}
		if err := f.Validate(); err != nil {
			t.Errorf("FabricPreset(%q, %d) returned an invalid fabric: %v", tc.name, tc.world, err)
		}
	}
}

// TestDegradeBelowFloorInfeasible reproduces a point whose collectives
// used to price past int64: the fig7 base at 2x2x4, mb 8, with the network
// degraded to 1e-12 of its bandwidth (0.042 B/s). The plan used to answer
// the undegraded 1,207,188,323 ns with a wrapped bound of
// -7,839,866,230,614,720,512; the point is infeasible now, and the same
// degrade as a sweep row is an error instead of a number.
func TestDegradeBelowFloorInfeasible(t *testing.T) {
	ctx := context.Background()
	base, err := DeploymentConfig(GPT3_15B(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base.Microbatches = 8
	tk := New(WithSeed(42))
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.PlanState(ctx, st, Space{PP: []int{2}, DP: []int{4}, Microbatch: []int{8}, Degrade: [][]float64{{1, 1e-12}}},
		WithMemoryModel(MemoryModel{GPUMemBytes: 192 << 30, ZeRO: ZeROOptimizer}), WithPlanStrategy(ExhaustiveStrategy()))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range append(append([]PlanEvaluated{}, res.Frontier...), res.Dominated...) {
		t.Errorf("%s answered %d ns with bound %d, want infeasible", e.Point.Key(), e.Iteration, e.Bound)
	}
	if len(res.Infeasible) != 1 || !strings.Contains(res.Infeasible[0].Infeasible, "bandwidth") {
		t.Fatalf("infeasible points %+v, want the degraded point rejected for its bandwidth", res.Infeasible)
	}
	sweep, err := tk.EvaluateState(ctx, st, DegradeLinksScenario(1, 1e-12))
	if err != nil {
		t.Fatal(err)
	}
	if r := sweep.Results[0]; r.Feasible() {
		t.Fatalf("degrade row answered %d ns, want an error", r.Iteration)
	}
}

package core

import (
	"context"
	"reflect"
	"testing"

	"lumos/internal/cluster"
	"lumos/internal/collective"
	"lumos/internal/manip"
	"lumos/internal/memcost"
	"lumos/internal/parallel"
	"lumos/internal/planner"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// planSpace is a fig7-style grid over pipeline/data parallelism and
// microbatch count.
func planSpace() planner.Space {
	return planner.Space{
		PP:         []int{1, 2},
		DP:         []int{1, 2},
		Microbatch: []int{4, 8},
	}
}

// roomyMem keeps every grid point memory-feasible so the tests exercise
// the search, not the pre-filter.
func roomyMem() memcost.Model {
	return memcost.Model{GPUMemBytes: 192 << 30, ZeRO: memcost.ZeROOptimizer}
}

func TestPlanStrategiesAgreeWithExhaustive(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}

	ex, err := tk.PlanState(ctx, st, planSpace(),
		planner.WithStrategy(planner.Exhaustive{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	exBest, ok := ex.Best()
	if !ok {
		t.Fatal("exhaustive plan found nothing")
	}
	if ex.Stats.Simulated != ex.Stats.Feasible {
		t.Fatalf("exhaustive simulated %d of %d", ex.Stats.Simulated, ex.Stats.Feasible)
	}

	for _, strat := range []planner.Strategy{planner.Beam{Width: 4}, planner.SuccessiveHalving{}, planner.BranchAndBound{}} {
		res, err := tk.PlanState(ctx, st, planSpace(),
			planner.WithStrategy(strat), planner.WithMemModel(roomyMem()))
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Simulated >= ex.Stats.Simulated {
			t.Fatalf("%s simulated %d, want fewer than exhaustive's %d",
				strat.Name(), res.Stats.Simulated, ex.Stats.Simulated)
		}
		best, ok := res.Best()
		if !ok {
			t.Fatalf("%s found nothing", strat.Name())
		}
		if best.Point.Key() != exBest.Point.Key() || best.Iteration != exBest.Iteration {
			t.Fatalf("%s best %s (%v) != exhaustive best %s (%v)",
				strat.Name(), best.Point.Key(), best.Iteration, exBest.Point.Key(), exBest.Iteration)
		}
	}
}

// TestPlanHalvingHitsScenarioCache asserts the successive-halving rounds
// re-visit survivors through the campaign's scenario cache: re-visits must
// be memo hits, not fresh predictions.
func TestPlanHalvingHitsScenarioCache(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.PlanState(ctx, st, planSpace(),
		planner.WithStrategy(planner.SuccessiveHalving{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SimRequests <= res.Stats.Simulated {
		t.Fatalf("halving issued %d requests over %d unique points — no re-visits",
			res.Stats.SimRequests, res.Stats.Simulated)
	}
	hits, entries := st.MemoStats()
	if hits == 0 {
		t.Fatal("successive-halving re-visits did not hit the scenario cache")
	}
	if want := int64(res.Stats.Simulated); entries < want {
		t.Fatalf("cache entries %d, want >= %d", entries, want)
	}
	if got, want := int64(res.Stats.SimRequests-res.Stats.Simulated), hits; got != want {
		t.Fatalf("re-visits %d != memo hits %d", got, want)
	}
}

// TestPlanDeterministicAcrossWorkers asserts bit-identical plan results at
// WithConcurrency(1) and WithConcurrency(8).
func TestPlanDeterministicAcrossWorkers(t *testing.T) {
	base := testConfig(t)
	run := func(workers int) *planner.Result {
		t.Helper()
		tk := New(WithConcurrency(workers), WithSeed(42))
		res, err := tk.Plan(context.Background(), base, planSpace(),
			planner.WithStrategy(planner.SuccessiveHalving{}), planner.WithMemModel(roomyMem()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("plan results differ between 1 and 8 workers:\n%+v\nvs\n%+v", a, b)
	}
}

// TestPlanFabricPoints exercises points that override the fabric and
// degrade links: they must simulate (repricing communication) and carry
// distinct iteration times.
func TestPlanFabricPoints(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	space := planner.Space{
		Degrade: [][]float64{nil, {0.5}},
	}
	res, err := tk.PlanState(ctx, st, space,
		planner.WithStrategy(planner.Exhaustive{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]planner.Evaluated{}, res.Frontier...), res.Dominated...)
	if len(all) != 2 {
		t.Fatalf("evaluated %d points, want 2", len(all))
	}
	if all[0].Iteration == all[1].Iteration {
		t.Fatal("halved-bandwidth point predicted identical to nominal")
	}
	var nominal, degraded planner.Evaluated
	for _, e := range all {
		if len(e.Point.Degrade) == 0 {
			nominal = e
		} else {
			degraded = e
		}
	}
	if degraded.Iteration <= nominal.Iteration {
		t.Fatalf("degraded links predicted faster: %v vs %v", degraded.Iteration, nominal.Iteration)
	}
}

// ratioPredictor is the reference the shared-structure path is checked
// against: a synthesis-time predictor that prices kernels like the
// campaign (measured, else fitted) and then moves every collective to the
// target fabric by the same target/campaign cost ratio the retime plan
// applies.
type ratioPredictor struct {
	manip.Predictor
	target, campaign collective.Pricer
}

func (p *ratioPredictor) Comm(kind trace.CommKind, bytes int64, ranks []int) trace.Dur {
	d := p.Predictor.Comm(kind, bytes, ranks)
	base, target := p.campaign.Cost(kind, bytes, ranks), p.target.Cost(kind, bytes, ranks)
	if base > 0 && target > 0 {
		d = trace.Dur(float64(d) * (float64(target) / float64(base)))
	}
	return d
}

// synthesizeOn synthesizes target directly on fabric f with every
// collective re-priced by the ratio rule, under the deterministic
// simulator settings campaign synthesis uses.
func synthesizeOn(t *testing.T, st *BaseState, target parallel.Config, f topology.Fabric) trace.Dur {
	t.Helper()
	world := target.Map.WorldSize()
	campaign := st.Fabric
	if campaign.Capacity() < world {
		campaign = campaign.WithCapacity(world)
	}
	cfg := cluster.DefaultSimConfig(world, 0)
	cfg.Fabric = f
	cfg.Oracle = &ratioPredictor{
		Predictor: manip.Predictor{Lib: st.Library, Fitted: st.Fitted},
		target:    collective.For(f),
		campaign:  collective.For(campaign),
	}
	cfg.ComputeJitterSigma, cfg.CommJitterSigma, cfg.CPUJitterSigma, cfg.RankSkewSigma = 0, 0, 0, 0
	cfg.OverlapComputeSlowdown, cfg.OverlapCommSlowdown = 1, 1
	g, err := cluster.Synthesize(target, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g.Duration()
}

// TestPlanSharedStructureRetime covers the structural batch-replay path:
// fabric/degrade points re-time one shared synthesized graph instead of
// re-synthesizing, the sharing is counted in Stats, and the replayed
// prediction stays within 2% of synthesizing each point directly on its
// own fabric under the same pricing rule.
func TestPlanSharedStructureRetime(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	space := planner.Space{
		PP:      []int{1, 2},
		Degrade: [][]float64{nil, {0.5}, {0.25}},
	}
	res, err := tk.PlanState(ctx, st, space,
		planner.WithStrategy(planner.Exhaustive{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]planner.Evaluated{}, res.Frontier...), res.Dominated...)
	if len(all) != 6 {
		t.Fatalf("evaluated %d points, want 6", len(all))
	}
	if res.Stats.SharedStructure != 4 {
		t.Fatalf("SharedStructure = %d, want 4 (the degraded points)", res.Stats.SharedStructure)
	}
	for _, e := range all {
		if len(e.Point.Degrade) == 0 {
			continue
		}
		f, err := planner.ResolveFabric(e.Point, st.Fabric)
		if err != nil {
			t.Fatal(err)
		}
		direct := synthesizeOn(t, st, e.Point.Config(st.Config), f)
		diff := float64(e.Iteration) - float64(direct)
		if diff < 0 {
			diff = -diff
		}
		if rel := diff / float64(direct); rel > 0.02 {
			t.Errorf("%s: retimed %v vs direct synthesis %v (%.2f%% apart)",
				e.Point.Key(), e.Iteration, direct, 100*rel)
		}
	}
}

// TestPlanBnBDeterministicWithSharing: branch-and-bound over a space with
// a degrade axis (stressing the shared-structure path) is bit-identical
// at any worker count, including the sharing counters.
func TestPlanBnBDeterministicWithSharing(t *testing.T) {
	base := testConfig(t)
	run := func(workers int) *planner.Result {
		t.Helper()
		tk := New(WithConcurrency(workers), WithSeed(42))
		res, err := tk.Plan(context.Background(), base, planner.Space{
			PP:         []int{1, 2},
			Microbatch: []int{4, 8},
			Degrade:    [][]float64{nil, {0.5}},
		}, planner.WithStrategy(planner.BranchAndBound{}), planner.WithMemModel(roomyMem()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(1), run(8)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("bnb plan results differ between 1 and 8 workers:\n%+v\nvs\n%+v", a, b)
	}
}

// TestPlanProfilesOnce asserts Plan pays one profile and one calibration
// regardless of how many points it simulates.
func TestPlanProfilesOnce(t *testing.T) {
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	if _, err := tk.Plan(context.Background(), base, planSpace(),
		planner.WithStrategy(planner.Exhaustive{}), planner.WithMemModel(roomyMem())); err != nil {
		t.Fatal(err)
	}
	profiles, libs := tk.Counters()
	if profiles != 1 || libs != 1 {
		t.Fatalf("plan used %d profiles and %d calibrations, want 1 and 1", profiles, libs)
	}
}

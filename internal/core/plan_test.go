package core

import (
	"context"
	"reflect"
	"testing"

	"lumos/internal/cluster"
	"lumos/internal/collective"
	"lumos/internal/manip"
	"lumos/internal/memcost"
	"lumos/internal/obs"
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

	res, err := tk.PlanState(ctx, st, planSpace(),
		planner.WithStrategy(planner.BranchAndBound{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Simulated >= ex.Stats.Simulated {
		t.Fatalf("bnb simulated %d, want fewer than exhaustive's %d",
			res.Stats.Simulated, ex.Stats.Simulated)
	}
	best, ok := res.Best()
	if !ok {
		t.Fatal("bnb found nothing")
	}
	if best.Point.Key() != exBest.Point.Key() || best.Iteration != exBest.Iteration {
		t.Fatalf("bnb best %s (%v) != exhaustive best %s (%v)",
			best.Point.Key(), best.Iteration, exBest.Point.Key(), exBest.Iteration)
	}
}

// TestPlanRepeatServedByMemo asks the same bnb plan twice on one campaign
// state: the second answer must equal the first, every point it simulates
// must be a scenario-memo hit, and no compiled replay may run for it. The
// space degrades every link tier, so the first plan's degraded points do
// replay.
func TestPlanRepeatServedByMemo(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	base := testConfig(t)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	space := planSpace()
	space.Degrade = [][]float64{nil, {0.5}}
	ask := func() *planner.Result {
		t.Helper()
		res, err := tk.PlanState(ctx, st, space,
			planner.WithStrategy(planner.BranchAndBound{}), planner.WithMemModel(roomyMem()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := ask()
	hits0 := st.CacheStats().MemoHits
	_, runs0, _ := tk.EngineStats()
	second := ask()
	hits1 := st.CacheStats().MemoHits
	_, runs1, _ := tk.EngineStats()

	if !reflect.DeepEqual(first, second) {
		t.Fatalf("repeat plan differs:\n%+v\nvs\n%+v", first, second)
	}
	if got, want := hits1-hits0, int64(first.Stats.Simulated); got != want || want == 0 {
		t.Fatalf("repeat plan had %d memo hits, want %d (the first plan's simulated points)", got, want)
	}
	if runs0 == 0 || runs1 != runs0 {
		t.Fatalf("compiled replays: %d after the first plan, %d after the repeat; want some, then none more", runs0, runs1)
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
			planner.WithStrategy(planner.BranchAndBound{}), planner.WithMemModel(roomyMem()))
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
		target:    collective.NewPricer(f),
		campaign:  collective.NewPricer(campaign),
	}
	cfg.ComputeJitterSigma, cfg.CommJitterSigma, cfg.CPUJitterSigma, cfg.RankSkewSigma = 0, 0, 0, 0
	cfg.OverlapComputeSlowdown, cfg.OverlapCommSlowdown = 1, 1
	g, err := cluster.Synthesize(target, cfg, nil)
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

// TestPlanSkipsUnchangedReplay: a degraded plan point whose collectives all
// stay inside one NVLink node retimes to the synthesized durations, so it
// answers its undegraded twin's iteration without a replay — no replay
// span, a skipped-run count, and a retime span annotated with zero changed
// groups — while a point that crosses the network still replays.
func TestPlanSkipsUnchangedReplay(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.ContextWithTracer(context.Background(), tr)
	tk := New(WithConcurrency(2))
	st, err := tk.Prepare(ctx, testConfig(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.PlanState(ctx, st, planner.Space{
		PP:      []int{1, 2},
		DP:      []int{1, 4},
		Degrade: [][]float64{nil, NetworkDegradeFactors(0.5)},
	}, planner.WithStrategy(planner.Exhaustive{}), planner.WithMemModel(roomyMem()))
	if err != nil {
		t.Fatal(err)
	}
	iter := map[string]trace.Dur{}
	for _, e := range append(append([]planner.Evaluated{}, res.Frontier...), res.Dominated...) {
		iter[e.Point.Key()] = e.Iteration
	}
	if len(iter) != 8 || res.Stats.SharedStructure != 4 {
		t.Fatalf("%d points with %d shared-structure, want 8 and 4", len(iter), res.Stats.SharedStructure)
	}
	for _, shape := range []string{"2x1x1/mb4", "2x2x1/mb4", "2x1x4/mb4"} {
		if iter[shape+"~bw*1,0.5"] != iter[shape] {
			t.Errorf("%s: degraded %v != undegraded %v inside one node", shape, iter[shape+"~bw*1,0.5"], iter[shape])
		}
	}
	if iter["2x2x4/mb4~bw*1,0.5"] <= iter["2x2x4/mb4"] {
		t.Errorf("2x2x4/mb4: degraded %v not slower than undegraded %v across nodes",
			iter["2x2x4/mb4~bw*1,0.5"], iter["2x2x4/mb4"])
	}
	if _, _, skipped := tk.EngineStats(); skipped != 3 {
		t.Fatalf("skipped runs = %d, want 3", skipped)
	}
	replays, unchanged := 0, 0
	for _, ev := range tr.Events() {
		switch {
		case ev.Cat == "scenario" && ev.Name == "replay":
			replays++
		case ev.Cat == "scenario" && ev.Name == "retime" && ev.Args["changed"] == 0:
			unchanged++
		}
	}
	if replays != 1 || unchanged != 3 {
		t.Fatalf("%d replay spans and %d unchanged retimes, want 1 and 3", replays, unchanged)
	}
}

package lumos

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"lumos/internal/analysis"
	"lumos/internal/collective"
	"lumos/internal/manip"
	"lumos/internal/planner"
	"lumos/internal/replay"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// The compiled engine is the only production replay engine; the reference
// interpreter (replay.Simulator) survives as the oracle these tests check
// it against. Every replayed answer a campaign or plan gives is recomputed
// here on the interpreter and must match bit for bit.

// engineCampaign is a fig7/fig8-flavored campaign touching every replay
// path: the scale grid (fig7), architecture variants (fig8), kernel-level
// what-ifs (pooled retimed replays of the base program), fusion, fabric and
// degrade overrides, and every pipeline schedule including interleaved and
// zero-bubble.
func engineCampaign(world int) []Scenario {
	scenarios := GridSweep(GPT3_15B(), []int{2}, []int{1, 2}, []int{1, 2})
	return append(scenarios,
		BaselineScenario(),
		ArchScenario(GPT3_V1()),
		ArchScenario(GPT3_V2()),
		ClassScaleScenario(KCGEMM, 0.5),
		ClassScaleScenario(KCComm, 1.7),
		FusionScenario(),
		FabricScenario("oversub", OversubscribedFabric(world, 4)),
		DegradeLinksScenario(0.7),
		ScheduleScenario("1f1b"),
		ScheduleScenario("gpipe"),
		ScheduleScenario("interleaved2"),
		ScheduleScenario("zb-h1"),
	)
}

// oracleSim returns a fresh reference interpreter.
func oracleSim() *replay.Simulator { return replay.NewSimulator(replay.DefaultOptions()) }

// oracleRetime replays g on the interpreter under fresh duration columns
// that retime rewrites, and returns the makespan.
func oracleRetime(t *testing.T, g *Graph, retime func(replay.Timings)) trace.Dur {
	t.Helper()
	tm := replay.NewTimings(g)
	retime(tm)
	res, err := oracleSim().Run(g, tm)
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan
}

// oracleOnFabric recomputes a target's prediction on a resolved fabric f
// with the reference interpreter, following the documented fabric
// semantics from scratch: synthesize the target on the campaign fabric;
// on that fabric answer the synthesized iteration; elsewhere scale every
// collective group's synthesized duration by its target/campaign cost in
// fresh duration columns, replay them and the untouched graph, and add the
// difference to the synthesized iteration. The breakdown is the one a
// sweep row reports (zero for plan points, which compute none).
func oracleOnFabric(t *testing.T, st *BaseState, target Config, f Fabric) (trace.Dur, Breakdown) {
	t.Helper()
	out, err := manip.PredictGraphWith(manip.Request{Base: st.Config, Target: target}, st.Library, st.Fitted, st.Fabric)
	if err != nil {
		t.Fatal(err)
	}
	g := out.Graph
	campaign := st.Fabric
	if world := target.Map.WorldSize(); campaign.Capacity() < world {
		campaign = campaign.WithCapacity(world)
	}
	if topology.FabricID(f) == topology.FabricID(campaign) {
		return out.Iteration, analysis.GraphBreakdown(g)
	}
	tp, cp := collective.NewPricer(f), collective.NewPricer(campaign)
	v := replay.NewTimings(g)
	for _, members := range g.Groups {
		ranks := make([]int, len(members))
		for i, id := range members {
			ranks[i] = int(g.Tasks[id].Rank)
		}
		sort.Ints(ranks)
		t0 := &g.Tasks[members[0]]
		d := t0.GroupDur
		if base, tgt := cp.Cost(t0.Comm, t0.CommBytes, ranks), tp.Cost(t0.Comm, t0.CommBytes, ranks); base > 0 && tgt > 0 {
			d = trace.Dur(float64(d) * (float64(tgt) / float64(base)))
		}
		for _, id := range members {
			v.Dur[id] = d
			v.GroupDur[id] = d
		}
	}
	sim := oracleSim()
	own, err := sim.Run(g, replay.Timings{})
	if err != nil {
		t.Fatal(err)
	}
	ownSpan := own.Makespan
	res, err := sim.Run(g, v)
	if err != nil {
		t.Fatal(err)
	}
	return out.Iteration + res.Makespan - ownSpan, analysis.MultiBreakdown(replay.ToTrace(g, res))
}

// TestEngineEquivalenceCampaign checks every replayed campaign answer
// against the interpreter: the base point, the kernel what-ifs (the
// interpreter replaying ScaleDurations/ApplyFusion columns), and the
// fabric and degrade rows (repriced columns plus the anchor).
// Synthesis-only rows are checked against a direct synthesis.
func TestEngineEquivalenceCampaign(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)
	world := base.Map.WorldSize()
	tk := New(WithSeed(42), WithConcurrency(4))
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := tk.EvaluateState(ctx, st, engineCampaign(world)...)
	if err != nil {
		t.Fatal(err)
	}

	baseRes, err := oracleSim().Run(st.Graph, replay.Timings{})
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Base.Iteration != baseRes.Makespan {
		t.Fatalf("base point %d, interpreter %d", sweep.Base.Iteration, baseRes.Makespan)
	}
	degraded, err := DegradeFabric(st.Fabric, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	fabrics := map[string]Fabric{"oversub": OversubscribedFabric(world, 4), "degrade=[0.7]": degraded}
	class := map[string]struct {
		class  KernelClass
		factor float64
	}{
		ClassScaleScenario(KCGEMM, 0.5).Name(): {KCGEMM, 0.5},
		ClassScaleScenario(KCComm, 1.7).Name(): {KCComm, 1.7},
	}

	checked := 0
	for _, r := range sweep.Results {
		if !r.Feasible() {
			t.Fatalf("%q infeasible: %s", r.Name, r.Err)
		}
		var want trace.Dur
		wantBreakdown := r.Breakdown
		switch r.Kind {
		case "baseline":
			want = baseRes.Makespan
		case "whatif-scale":
			c := class[r.Name]
			want = oracleRetime(t, st.Graph, func(tm replay.Timings) {
				analysis.ScaleDurations(st.Graph, tm, func(tk *Task) bool { return tk.Class == c.class }, c.factor)
			})
		case "whatif-fusion":
			want = oracleRetime(t, st.Graph, func(tm replay.Timings) {
				analysis.ApplyFusion(st.Graph, tm, DefaultFusionOpts())
			})
		case "fabric":
			f, ok := fabrics[r.Name]
			if !ok {
				t.Fatalf("unexpected fabric row %q", r.Name)
			}
			want, wantBreakdown = oracleOnFabric(t, st, r.Target, f)
		default:
			var out *manip.GraphResult
			out, err = manip.PredictGraphWith(manip.Request{Base: st.Config, Target: r.Target}, st.Library, st.Fitted, st.Fabric)
			if err == nil {
				want, wantBreakdown = out.Iteration, analysis.GraphBreakdown(out.Graph)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		if r.Iteration != want || r.Breakdown != wantBreakdown {
			t.Errorf("%s %q: iteration %d breakdown %+v, oracle %d %+v",
				r.Kind, r.Name, r.Iteration, r.Breakdown, want, wantBreakdown)
		}
		checked++
	}
	if checked != len(engineCampaign(world)) {
		t.Fatalf("checked %d rows, want %d", checked, len(engineCampaign(world)))
	}
}

// planSpace is a small but heterogeneous plan space spanning schedule,
// microbatch, and degrade axes.
func planSpace() Space {
	return Space{
		PP:         []int{1, 2, 4},
		DP:         []int{1, 2},
		Microbatch: []int{4, 6, 8},
		Schedules:  []string{"1f1b", "interleaved2", "zb-h1"},
		Degrade:    [][]float64{nil, NetworkDegradeFactors(0.85)},
	}
}

// TestEngineEquivalencePlan runs branch-and-bound over a mixed
// schedule/degrade space and recomputes every simulated point on the
// interpreter: each must match bit for bit.
func TestEngineEquivalencePlan(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)
	mem := MemoryModel{GPUMemBytes: 192 << 30, ZeRO: ZeROOptimizer}

	tk := New(WithSeed(42), WithConcurrency(4))
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.PlanState(ctx, st, planSpace(),
		WithPlanStrategy(BranchAndBoundStrategy()), WithMemoryModel(mem))
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([]PlanEvaluated{}, res.Frontier...), res.Dominated...)
	if len(all) == 0 {
		t.Fatal("plan simulated no points")
	}
	for _, e := range all {
		f, err := planner.ResolveFabric(e.Point, st.Fabric)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := oracleOnFabric(t, st, e.Point.Config(st.Config), f); e.Iteration != want {
			t.Errorf("%s: plan %d, oracle %d", e.Point.Key(), e.Iteration, want)
		}
	}
}

// TestPlanDeterminismAcrossWorkers verifies the parallel batch evaluator:
// branch-and-bound (whose tie-batching hands the sweep worker pool
// multi-point rounds) must return identical evaluations, stats, and
// frontier at 1 and 8 workers.
func TestPlanDeterminismAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)
	mem := MemoryModel{GPUMemBytes: 192 << 30, ZeRO: ZeROOptimizer}

	run := func(workers int) *PlanResult {
		t.Helper()
		tk := New(WithSeed(42), WithConcurrency(workers))
		res, err := tk.Plan(ctx, base, planSpace(),
			WithPlanStrategy(BranchAndBoundStrategy()), WithMemoryModel(mem))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial.Frontier, wide.Frontier) {
		t.Fatal("bnb frontier depends on worker count")
	}
	if !reflect.DeepEqual(serial.Dominated, wide.Dominated) {
		t.Fatal("bnb dominated ranking depends on worker count")
	}
	if serial.Stats != wide.Stats {
		t.Fatalf("bnb stats depend on worker count: %+v vs %+v", serial.Stats, wide.Stats)
	}
}

// TestEngineCountersSurface checks the observability contract: a campaign
// reports its replays on the single run counter — already after Prepare,
// whose base replay runs before any scenario does — and its program
// lowerings once what-ifs run; single-shot replays count the same way.
func TestEngineCountersSurface(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)

	single := New()
	traces, err := single.Profile(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := single.ReplayTraces(ctx, traces); err != nil {
		t.Fatal(err)
	}
	if _, err := single.ReplayDPRO(ctx, traces); err != nil {
		t.Fatal(err)
	}
	if programs, runs, _ := single.EngineStats(); programs != 2 || runs != 2 {
		t.Fatalf("ReplayTraces + ReplayDPRO counted %d programs and %d runs, want 2 and 2", programs, runs)
	}

	tk := New(WithSeed(42))
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	before := st.CacheStats()
	if before.CompiledRuns < 1 {
		t.Fatalf("campaign's base replay was not counted: %+v", before)
	}
	if _, err := tk.EvaluateState(ctx, st, ClassScaleScenario(KCGEMM, 0.5), FusionScenario()); err != nil {
		t.Fatal(err)
	}
	cs := st.CacheStats()
	if cs.CompiledPrograms == 0 {
		t.Fatalf("campaign reported no program lowerings: %+v", cs)
	}
	if got := cs.CompiledRuns - before.CompiledRuns; got != 2 {
		t.Fatalf("two what-ifs counted %d runs, want 2: %+v", got, cs)
	}
}

// TestPrepareBaseReplayMatchesReplay pins the campaign base point to the
// reference path: PrepareTraces replays the base on a pooled scratch and
// reads its breakdown off the replay columns, and must report exactly the
// iteration time and breakdown the interpreter's replay gives through a
// materialized trace, under every pipeline schedule.
func TestPrepareBaseReplayMatchesReplay(t *testing.T) {
	ctx := context.Background()
	for _, spec := range []string{"1f1b", "gpipe", "interleaved2", "zb-h1"} {
		cfg, err := WithScheduleSpec(scheduleBase(t, GPT3_15B()), spec)
		if err != nil {
			t.Fatal(err)
		}
		traces, err := New().Profile(ctx, cfg, 42)
		if err != nil {
			t.Fatal(err)
		}
		st, err := New().PrepareTraces(ctx, cfg, traces)
		if err != nil {
			t.Fatal(err)
		}
		res, err := oracleSim().Run(st.Graph, replay.Timings{})
		if err != nil {
			t.Fatal(err)
		}
		want := analysis.MultiBreakdown(replay.ToTrace(st.Graph, res))
		if st.Iteration != res.Makespan || st.Breakdown != want {
			t.Fatalf("%s: prepared base %d %#v != interpreter %d %#v",
				spec, st.Iteration, st.Breakdown, res.Makespan, want)
		}
	}
}

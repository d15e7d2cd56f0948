package lumos

import (
	"context"
	"reflect"
	"testing"
)

// engineCampaign is a fig7/fig8-flavored campaign touching every replay
// path the engines must agree on: the scale grid (fig7), architecture
// variants (fig8), kernel-level what-ifs (pooled retimed replays of the
// base graph), fusion, fabric and degrade overrides, and every pipeline
// schedule including interleaved and zero-bubble.
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

// TestEngineEquivalenceCampaign is the compiled engine's acceptance test at
// the public API: a full campaign evaluated under the compiled engine and
// the reference interpreter must produce bit-identical ranked results.
func TestEngineEquivalenceCampaign(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)

	run := func(k EngineKind) *SweepResult {
		t.Helper()
		tk := New(WithSeed(42), WithConcurrency(4), WithReplayEngine(k))
		sweep, err := tk.Evaluate(ctx, base, engineCampaign(base.Map.WorldSize())...)
		if err != nil {
			t.Fatal(err)
		}
		return sweep
	}
	compiled := run(EngineCompiled)
	interpreted := run(EngineInterpreted)
	if !reflect.DeepEqual(compiled.Results, interpreted.Results) {
		for i := range compiled.Results {
			c, p := compiled.Results[i], interpreted.Results[i]
			if !reflect.DeepEqual(c, p) {
				t.Errorf("rank %d: compiled %q iter=%d vs interpreted %q iter=%d",
					i, c.Name, c.Iteration, p.Name, p.Iteration)
			}
		}
		t.Fatal("compiled and interpreted engines disagree")
	}
	if compiled.Base.Iteration != interpreted.Base.Iteration {
		t.Fatalf("base point differs: %d vs %d", compiled.Base.Iteration, interpreted.Base.Iteration)
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
// schedule/degrade space under both engines: the evaluated points, the
// frontier, and the best configuration must match exactly.
func TestEngineEquivalencePlan(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)
	mem := MemoryModel{GPUMemBytes: 192 << 30, ZeRO: ZeROOptimizer}

	run := func(k EngineKind) *PlanResult {
		t.Helper()
		tk := New(WithSeed(42), WithConcurrency(4), WithReplayEngine(k))
		res, err := tk.Plan(ctx, base, planSpace(),
			WithPlanStrategy(BranchAndBoundStrategy(0)), WithMemoryModel(mem))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	compiled := run(EngineCompiled)
	interpreted := run(EngineInterpreted)
	if !reflect.DeepEqual(compiled.Frontier, interpreted.Frontier) {
		t.Fatal("compiled and interpreted plan frontiers disagree")
	}
	if !reflect.DeepEqual(compiled.Dominated, interpreted.Dominated) {
		t.Fatal("compiled and interpreted plans rank dominated points differently")
	}
	if compiled.Stats != interpreted.Stats {
		t.Fatalf("plan stats differ across engines: %+v vs %+v", compiled.Stats, interpreted.Stats)
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
		tk := New(WithSeed(42), WithConcurrency(workers), WithScenarioCache(false))
		res, err := tk.Plan(ctx, base, planSpace(),
			WithPlanStrategy(BranchAndBoundStrategy(0)), WithMemoryModel(mem))
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

// TestEngineCountersSurface checks the observability contract: a compiled
// campaign reports program lowerings and compiled runs (and no interpreted
// runs), an interpreted one the inverse — already after Prepare, whose base
// replay runs on the campaign's engine before any scenario does.
func TestEngineCountersSurface(t *testing.T) {
	ctx := context.Background()
	base := sweepBase(t)

	tk := New(WithSeed(42), WithReplayEngine(EngineCompiled))
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	if cs := st.CacheStats(); cs.CompiledRuns < 1 || cs.InterpretedRuns != 0 {
		t.Fatalf("compiled campaign's base replay did not run compiled: %+v", cs)
	}
	if _, err := tk.EvaluateState(ctx, st, ClassScaleScenario(KCGEMM, 0.5), FusionScenario()); err != nil {
		t.Fatal(err)
	}
	cs := st.CacheStats()
	if cs.CompiledPrograms == 0 || cs.CompiledRuns == 0 {
		t.Fatalf("compiled campaign reported no engine activity: %+v", cs)
	}
	if cs.InterpretedRuns != 0 {
		t.Fatalf("compiled campaign ran the interpreter: %+v", cs)
	}

	itk := New(WithSeed(42), WithReplayEngine(EngineInterpreted))
	ist, err := itk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	if ics := ist.CacheStats(); ics.InterpretedRuns < 1 || ics.CompiledRuns != 0 {
		t.Fatalf("interpreted campaign's base replay did not run interpreted: %+v", ics)
	}
	if _, err := itk.EvaluateState(ctx, ist, ClassScaleScenario(KCGEMM, 0.5)); err != nil {
		t.Fatal(err)
	}
	ics := ist.CacheStats()
	if ics.InterpretedRuns == 0 {
		t.Fatalf("interpreted campaign reported no interpreter runs: %+v", ics)
	}
	if ics.CompiledRuns != 0 {
		t.Fatalf("interpreted campaign ran the compiled engine: %+v", ics)
	}
}

// TestPrepareBaseReplayMatchesReplay pins the campaign base point to the
// reference path: PrepareTraces replays the base on the campaign's engine
// and reads its breakdown off the replay columns, and must report exactly
// the iteration time and breakdown Replay derives from the materialized
// replayed trace, under every pipeline schedule and both engines.
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
		for _, k := range []EngineKind{EngineCompiled, EngineInterpreted} {
			tk := New(WithReplayEngine(k))
			st, err := tk.PrepareTraces(ctx, cfg, traces)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := tk.Replay(ctx, st.Graph)
			if err != nil {
				t.Fatal(err)
			}
			if st.Iteration != rep.Iteration || st.Breakdown != rep.Breakdown {
				t.Fatalf("%s/%s: prepared base %d %#v != replayed %d %#v",
					spec, k, st.Iteration, st.Breakdown, rep.Iteration, rep.Breakdown)
			}
		}
	}
}

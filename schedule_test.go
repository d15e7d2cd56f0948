package lumos

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// scheduleBase is the fig7-shaped GPT-3 15B 2x2x2 deployment the schedule
// acceptance tests run on.
func scheduleBase(t *testing.T, arch Arch) Config {
	t.Helper()
	cfg, err := DeploymentConfig(arch, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Microbatches = 8
	return cfg
}

// TestSchedule1F1BPredictionEquivalence is the PR's equivalence gate: with
// Schedule: OneFOneB, predictions are bit-identical to the plain deploy
// prediction of the same target on the fig7 (GPT-3 15B) and fig8 (GPT-3
// V3) configurations — the subsystem refactor must not move a single
// nanosecond on the paper's default schedule.
func TestSchedule1F1BPredictionEquivalence(t *testing.T) {
	ctx := context.Background()
	for _, arch := range []Arch{GPT3_15B(), GPT3_V3()} {
		base := scheduleBase(t, arch)
		tk := New(WithSeed(42))
		sweep, err := tk.Evaluate(ctx, base,
			ScheduleScenario("1f1b"),
			DeploymentScenario(arch, 2, 2, 2),
		)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]ScenarioResult{}
		for _, r := range sweep.Results {
			byName[r.Name] = r
		}
		sched := byName["schedule=1f1b"]
		deploy := byName[arch.Name+" 2x2x2"]
		if !sched.Feasible() || !deploy.Feasible() {
			t.Fatalf("%s: infeasible results: %+v / %+v", arch.Name, sched, deploy)
		}
		if sched.Iteration != deploy.Iteration {
			t.Fatalf("%s: explicit 1F1B prediction %v != plain deploy prediction %v",
				arch.Name, sched.Iteration, deploy.Iteration)
		}
		if !reflect.DeepEqual(sched.Breakdown, deploy.Breakdown) {
			t.Fatalf("%s: breakdowns diverge: %+v vs %+v", arch.Name, sched.Breakdown, deploy.Breakdown)
		}
	}
}

// TestScheduleSweepDeterministicRanked is the schedule analogue of the
// fabric determinism gate: a campaign spanning every schedule (plus an
// unknown spec) returns identical ranked results serially and on an 8-wide
// worker pool, interleaving strictly beats 1F1B, and the unknown spec
// surfaces as an infeasible point carrying the schedule menu.
func TestScheduleSweepDeterministicRanked(t *testing.T) {
	ctx := context.Background()
	base := scheduleBase(t, GPT3_15B())

	scenarios := func() []Scenario {
		s := ScheduleSweep([]string{"1f1b", "gpipe", "interleaved2", "zb-h1", "zb-v"})
		s = append(s, BaselineScenario())
		s = append(s, GridSweepSchedules(GPT3_15B(), []int{2}, []int{2}, []int{1}, []string{"", "interleaved2"})...)
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
		t.Fatal("schedule sweep results depend on worker count")
	}

	byName := map[string]ScenarioResult{}
	for _, r := range serial.Results {
		byName[r.Name] = r
	}
	fb := byName["schedule=1f1b"]
	il := byName["schedule=interleaved2"]
	zb := byName["schedule=zb-h1"]
	if !fb.Feasible() || !il.Feasible() || !zb.Feasible() {
		t.Fatalf("schedule points must be feasible: %+v %+v %+v", fb, il, zb)
	}
	if il.Iteration >= fb.Iteration {
		t.Fatalf("interleaved2 %v not faster than 1F1B %v", il.Iteration, fb.Iteration)
	}
	bad := byName["schedule=zb-v"]
	if bad.Feasible() || !strings.Contains(bad.Err, "interleaved") {
		t.Fatalf("unknown schedule must be infeasible with the menu: %+v", bad)
	}
}

// TestPlanScheduleSpaceDeterministic covers the planner's schedule axis:
// a space spanning schedules produces deterministic ranked results at any
// worker count, schedule-specific keys, and ZB-H1 memory estimates equal
// to 1F1B's.
func TestPlanScheduleSpaceDeterministic(t *testing.T) {
	ctx := context.Background()
	base := scheduleBase(t, GPT3_15B())
	space := Space{
		PP:        []int{2},
		DP:        []int{1, 2},
		Schedules: []string{"", "interleaved2", "zb-h1"},
	}
	mem := MemoryModel{ZeRO: ZeROOptimizer}

	run := func(workers int) *PlanResult {
		t.Helper()
		tk := New(WithConcurrency(workers), WithSeed(42))
		res, err := tk.Plan(ctx, base, space,
			WithPlanStrategy(ExhaustiveStrategy()), WithMemoryModel(mem))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	wide := run(8)
	if !reflect.DeepEqual(serial.Frontier, wide.Frontier) || !reflect.DeepEqual(serial.Dominated, wide.Dominated) {
		t.Fatal("plan results depend on worker count")
	}
	if serial.Stats.SpaceSize != 6 {
		t.Fatalf("space size %d, want 6", serial.Stats.SpaceSize)
	}

	mems := map[string]MemoryEstimate{}
	iters := map[string]int64{}
	for _, e := range append(append([]PlanEvaluated{}, serial.Frontier...), serial.Dominated...) {
		mems[e.Point.Key()] = e.Mem
		iters[e.Point.Key()] = int64(e.Iteration)
	}
	for _, dp := range []string{"2x2x1", "2x2x2"} {
		fbKey, zbKey, ilKey := dp+"/mb8", dp+"/mb8/zb-h1", dp+"/mb8/interleaved2"
		if _, ok := mems[fbKey]; !ok {
			t.Fatalf("missing simulated point %s (have %v)", fbKey, mems)
		}
		if mems[zbKey] != mems[fbKey] {
			t.Fatalf("%s: ZB-H1 memory %+v != 1F1B %+v", dp, mems[zbKey], mems[fbKey])
		}
		if iters[ilKey] >= iters[fbKey] {
			t.Fatalf("%s: interleaved2 %d not faster than 1F1B %d", dp, iters[ilKey], iters[fbKey])
		}
	}
}

package lumos

import (
	"context"
	"testing"
)

// TestBoundAdmissible is the branch-and-bound safety gate: the analytic
// iteration-time bound must never exceed the simulated iteration time, on
// any point the planner can promote. It sweeps a broad randomized-shape
// grid — every (PP, DP, microbatch, schedule, degrade) combination the
// fig7/fig8 profiles support — simulates every feasible point
// exhaustively, and asserts bound ≤ simulated time pointwise. This is the
// empirical calibration for planner.boundDerate: if this test fails, the
// derate is too optimistic and exact pruning would be unsound.
//
// It doubles as the exactness gate: branch-and-bound over the same space,
// on the same campaign state, must return the bit-identical best point
// while simulating strictly fewer points.
func TestBoundAdmissible(t *testing.T) {
	ctx := context.Background()
	for _, arch := range []Arch{GPT3_15B(), GPT3_V3()} {
		base := scheduleBase(t, arch)
		tk := New(WithConcurrency(8), WithSeed(42))
		space := Space{
			PP:         []int{1, 2, 4},
			DP:         []int{1, 2, 4},
			Microbatch: []int{4, 8, 16},
			Schedules:  []string{"", "gpipe", "interleaved2", "zb-h1"},
			Degrade:    [][]float64{nil, {1, 0.5}},
		}
		mem := MemoryModel{GPUMemBytes: 192 << 30, ZeRO: ZeROOptimizer}
		st, err := tk.Prepare(ctx, base, 42)
		if err != nil {
			t.Fatal(err)
		}
		res, err := tk.PlanState(ctx, st, space,
			WithPlanStrategy(ExhaustiveStrategy()), WithMemoryModel(mem))
		if err != nil {
			t.Fatal(err)
		}
		points := append(append([]PlanEvaluated{}, res.Frontier...), res.Dominated...)
		if len(points) < 20 {
			t.Fatalf("%s: only %d simulated points — the admissibility sample is too thin", arch.Name, len(points))
		}
		worst := 0.0
		for _, e := range points {
			if e.Iteration <= 0 {
				t.Fatalf("%s %s: non-positive simulated iteration %v", arch.Name, e.Point.Key(), e.Iteration)
			}
			ratio := float64(e.Bound) / float64(e.Iteration)
			if ratio > worst {
				worst = ratio
			}
			if e.Bound > e.Iteration {
				t.Errorf("%s %s: bound %v exceeds simulated iteration %v (ratio %.3f) — not admissible",
					arch.Name, e.Point.Key(), e.Bound, e.Iteration, ratio)
			}
		}
		t.Logf("%s: %d points, worst bound/sim ratio %.3f", arch.Name, len(points), worst)

		// Exactness on the same profile: bnb re-uses the campaign state, so
		// its overlap with the exhaustive pass is served from the scenario
		// cache and the comparison is cheap.
		exBest, ok := res.Best()
		if !ok {
			t.Fatalf("%s: exhaustive plan found no feasible point", arch.Name)
		}
		bnb, err := tk.PlanState(ctx, st, space,
			WithPlanStrategy(BranchAndBoundStrategy(0)), WithMemoryModel(mem))
		if err != nil {
			t.Fatal(err)
		}
		bnbBest, ok := bnb.Best()
		if !ok {
			t.Fatalf("%s: branch-and-bound found no feasible point", arch.Name)
		}
		if bnbBest.Point.Key() != exBest.Point.Key() || bnbBest.Iteration != exBest.Iteration {
			t.Errorf("%s: bnb best %s (%v) != exhaustive best %s (%v)",
				arch.Name, bnbBest.Point.Key(), bnbBest.Iteration, exBest.Point.Key(), exBest.Iteration)
		}
		if bnb.Stats.Simulated >= res.Stats.Simulated {
			t.Errorf("%s: bnb simulated %d points, want strictly fewer than exhaustive's %d",
				arch.Name, bnb.Stats.Simulated, res.Stats.Simulated)
		}
		if res.Stats.BoundViolations != 0 || bnb.Stats.BoundViolations != 0 {
			t.Errorf("%s: runtime bound check counted %d (exhaustive) and %d (bnb) violations, want 0",
				arch.Name, res.Stats.BoundViolations, bnb.Stats.BoundViolations)
		}
		t.Logf("%s: bnb simulated %d/%d, pruned %d by bound, %d dominated",
			arch.Name, bnb.Stats.Simulated, res.Stats.Simulated,
			bnb.Stats.BoundPruned, bnb.Stats.DominatedPruned)
	}
}

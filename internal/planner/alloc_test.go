package planner

import (
	"runtime"
	"testing"
)

// planSearchAllocBudget bounds the heap bytes one branch-and-bound search
// over servePlanSpace may allocate with the package's fakeSim standing in
// for the simulator: about 1.3× the 7.7 MB it takes when OOM microbatch
// tails are booked without memory estimates and only retained rejections
// get a reason string (118 MB before).
const planSearchAllocBudget = 10_000_000

// servePlanSpace mirrors the lumosd serve-plan question: PP and DP over
// {1,2,4,8}, 128 microbatch counts, all four schedule families, and the
// undegraded network plus one fixed network bandwidth factor (NVLink
// nominal) in each fifteenth of [0.5, 1).
func servePlanSpace() Space {
	mbs := make([]int, 128)
	for i := range mbs {
		mbs[i] = 4 + i
	}
	degrade := [][]float64{nil}
	for i := 0; i < 15; i++ {
		degrade = append(degrade, []float64{1, 0.5 + (float64(i)+0.5)/30})
	}
	return Space{
		PP:         []int{1, 2, 4, 8},
		DP:         []int{1, 2, 4, 8},
		Microbatch: mbs,
		Schedules:  []string{"1f1b", "gpipe", "interleaved2", "zb-h1"},
		Degrade:    degrade,
	}
}

// TestPlanSearchAllocBudget holds one serve-plan-shaped bnb search to a
// byte budget, so per-point memory estimates, bounds or reason strings
// for points the result never returns fail `make alloc-guard`, not a
// profile.
func TestPlanSearchAllocBudget(t *testing.T) {
	base := baseCfg(t)
	s := servePlanSpace()
	plan(t, base, s, newFakeSim(), WithStrategy(BranchAndBound{})) // warm: lazy package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := plan(t, base, s, newFakeSim(), WithStrategy(BranchAndBound{}))
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one serve-plan bnb search allocated %d bytes (budget %d); %+v", got, planSearchAllocBudget, res.Stats)
	if got > planSearchAllocBudget {
		t.Fatalf("one serve-plan bnb search allocated %d bytes, over the %d-byte budget", got, planSearchAllocBudget)
	}
}

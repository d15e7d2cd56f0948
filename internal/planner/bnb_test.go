package planner

import (
	"reflect"
	"testing"

	"lumos/internal/trace"
)

// admissibleSim is a fakeSim whose distortion never undershoots the bound
// (sim = bound × [1.0, 1.12]), matching the admissibility contract the
// real simulator satisfies — branch-and-bound's exactness guarantee only
// holds under it.
func admissibleSim() *fakeSim {
	s := newFakeSim()
	s.perturb = func(c Candidate) trace.Dur {
		var h uint64 = 1469598103934665603
		for _, b := range []byte(c.Point.Key()) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		f := 1.0 + 0.12*float64(h%1000)/1000
		return trace.Dur(float64(c.Bound) * f)
	}
	return s
}

// TestBoundViolationsCounted checks the runtime admissibility check: a
// simulator that undershoots the bound on known points trips
// Stats.BoundViolations exactly once per such point it simulates, and an
// admissible simulator reads zero.
func TestBoundViolationsCounted(t *testing.T) {
	base := baseCfg(t)
	for _, s := range []Space{space(), bnbSpace()} {
		for _, strat := range []Strategy{Exhaustive{}, BranchAndBound{}} {
			var ex Explain
			res := plan(t, base, s, admissibleSim(), WithStrategy(strat), WithExplain(&ex))
			if res.Stats.BoundViolations != 0 {
				t.Fatalf("%s: admissible simulator tripped %d bound violations", strat.Name(), res.Stats.BoundViolations)
			}
			if !res.Exact || ex.Exact != nil {
				t.Fatalf("%s: admissible search marked inexact (result %v, explain %v)", strat.Name(), res.Exact, ex.Exact)
			}
		}
	}

	// Undershoot the bound by 1 ns on every third feasible point; the rest
	// simulate exactly at their bound, which is admissible.
	ex := plan(t, base, space(), admissibleSim(), WithStrategy(Exhaustive{}))
	under := map[string]bool{}
	for i, e := range append(append([]Evaluated{}, ex.Frontier...), ex.Dominated...) {
		if i%3 == 0 {
			under[e.Point.Key()] = true
		}
	}
	for _, strat := range []Strategy{Exhaustive{}, BranchAndBound{}} {
		sim := newFakeSim()
		sim.perturb = func(c Candidate) trace.Dur {
			if under[c.Point.Key()] {
				return c.Bound - 1
			}
			return c.Bound
		}
		var ex Explain
		res := plan(t, base, space(), sim, WithStrategy(strat), WithExplain(&ex))
		want := 0
		for k := range under {
			if sim.unique[k] > 0 {
				want++
			}
		}
		if want == 0 || res.Stats.BoundViolations != want {
			t.Fatalf("%s: %d bound violations, want %d (of %d undershooting points)",
				strat.Name(), res.Stats.BoundViolations, want, len(under))
		}
		if res.Exact || ex.Exact == nil || *ex.Exact {
			t.Fatalf("%s: %d bound violations but result exact=%v, explain exact=%v", strat.Name(), want, res.Exact, ex.Exact)
		}
	}
}

// bnbSpace stresses every rejection path: an out-of-scope TP slice, an
// unknown schedule name, schedules with per-mapping validity rules, and
// the microbatch axis the subtree nodes hold lazily.
func bnbSpace() Space {
	return Space{
		TP:         []int{2, 4},
		PP:         []int{1, 2, 4},
		DP:         []int{1, 2, 4},
		Microbatch: []int{8, 4, 16}, // deliberately unsorted
		Schedules:  []string{"", "gpipe", "interleaved2", "zb-h1", "zb-v"},
	}
}

func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	base := baseCfg(t)
	for _, s := range []Space{space(), bnbSpace()} {
		exSim := admissibleSim()
		ex := plan(t, base, s, exSim, WithStrategy(Exhaustive{}))
		exBest, ok := ex.Best()
		if !ok {
			t.Fatal("no exhaustive best")
		}

		sim := admissibleSim()
		res := plan(t, base, s, sim, WithStrategy(BranchAndBound{}))
		best, ok := res.Best()
		if !ok {
			t.Fatal("bnb: no best")
		}
		if best.Point.Key() != exBest.Point.Key() || best.Iteration != exBest.Iteration {
			t.Fatalf("bnb best %s (%v) != exhaustive best %s (%v)",
				best.Point.Key(), best.Iteration, exBest.Point.Key(), exBest.Iteration)
		}
		if res.Stats.Simulated >= ex.Stats.Simulated {
			t.Fatalf("bnb simulated %d, not fewer than exhaustive's %d",
				res.Stats.Simulated, ex.Stats.Simulated)
		}
		if res.Stats.BoundPruned+res.Stats.DominatedPruned == 0 {
			t.Fatal("bnb pruned nothing yet simulated fewer points")
		}
	}
}

func TestBranchAndBoundPartitionInvariant(t *testing.T) {
	base := baseCfg(t)
	sim := admissibleSim()
	res := plan(t, base, bnbSpace(), sim, WithStrategy(BranchAndBound{}))
	st := res.Stats
	got := st.MemRejected + st.ScheduleRejected + st.ScopeRejected +
		st.Feasible + st.BoundPruned + st.DominatedPruned
	if got != st.SpaceSize {
		t.Fatalf("partition %d (mem %d + sched %d + scope %d + feasible %d + bound-pruned %d + dominated-pruned %d) != space %d",
			got, st.MemRejected, st.ScheduleRejected, st.ScopeRejected,
			st.Feasible, st.BoundPruned, st.DominatedPruned, st.SpaceSize)
	}
	if st.Feasible != st.Simulated {
		t.Fatalf("bnb promotes every head it counts feasible: feasible %d != simulated %d",
			st.Feasible, st.Simulated)
	}
	if st.ScopeRejected == 0 || st.ScheduleRejected == 0 {
		t.Fatalf("space must exercise bulk rejections, got %+v", st)
	}
}

func TestBranchAndBoundDeterministic(t *testing.T) {
	base := baseCfg(t)
	run := func() *Result {
		return plan(t, base, bnbSpace(), admissibleSim(), WithStrategy(BranchAndBound{}))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Frontier, b.Frontier) || !reflect.DeepEqual(a.Dominated, b.Dominated) ||
		!reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatal("bnb results are not deterministic across runs")
	}
}

func TestBranchAndBoundRespectsBudget(t *testing.T) {
	base := baseCfg(t)
	sim := admissibleSim()
	res := plan(t, base, bnbSpace(), sim, WithStrategy(BranchAndBound{}), WithBudget(5))
	if res.Stats.Simulated > 5 {
		t.Fatalf("budget 5, simulated %d", res.Stats.Simulated)
	}
	if _, ok := res.Best(); !ok {
		t.Fatal("budgeted bnb returned no best")
	}
}

package planner

import (
	"testing"
)

// TestExplainTotalsMatchStats pins the explain-report contract across
// strategies: one Simulated record per point the search actually
// simulated, and pruned-subtree records accounting for exactly the points
// the stats say were pruned.
func TestExplainTotalsMatchStats(t *testing.T) {
	base := baseCfg(t)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"exhaustive", []Option{WithStrategy(Exhaustive{})}},
		{"bnb", []Option{WithStrategy(BranchAndBound{})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := &Explain{}
			sim := newFakeSim()
			res := plan(t, base, space(), sim, append([]Option{WithExplain(e)}, tc.opts...)...)

			if e.Strategy != res.Strategy {
				t.Errorf("explain strategy = %q, result %q", e.Strategy, res.Strategy)
			}
			if got, want := e.SimulatedCount(), res.Stats.Simulated; got != want {
				t.Errorf("explain has %d simulated records, stats report %d", got, want)
			}
			if got, want := e.PrunedPoints(), res.Stats.BoundPruned+res.Stats.DominatedPruned; got != want {
				t.Errorf("explain prunes %d points, stats report %d", got, want)
			}
			seen := map[string]bool{}
			for _, rec := range e.Simulated {
				if rec.Point == "" || seen[rec.Point] {
					t.Fatalf("bad or duplicate simulated record %+v", rec)
				}
				seen[rec.Point] = true
				if rec.Err == "" && rec.ActualMs <= 0 {
					t.Errorf("simulated record %s has no actual time", rec.Point)
				}
				if rec.BoundMs <= 0 {
					t.Errorf("simulated record %s has no bound", rec.Point)
				}
			}
			for _, p := range e.Pruned {
				if p.Head == "" || p.Points <= 0 || p.BoundMs <= 0 {
					t.Errorf("bad pruned record %+v", p)
				}
				if p.IncumbentMs <= 0 {
					t.Errorf("pruned record %s has no incumbent", p.Head)
				}
			}
		})
	}
}

// TestExplainBnbPrunesRecorded forces a space where branch-and-bound must
// prune and checks the pruned records carry real subtree accounting.
func TestExplainBnbPrunesRecorded(t *testing.T) {
	base := baseCfg(t)
	e := &Explain{}
	sim := newFakeSim()
	res := plan(t, base, space(), sim, WithStrategy(BranchAndBound{}), WithExplain(e))
	if res.Stats.BoundPruned+res.Stats.DominatedPruned == 0 {
		t.Skip("search pruned nothing; nothing to check")
	}
	if len(e.Pruned) == 0 {
		t.Fatal("stats report prunes but explain has no pruned records")
	}
	total := 0
	for _, p := range e.Pruned {
		total += p.Points
	}
	if total != res.Stats.BoundPruned+res.Stats.DominatedPruned {
		t.Fatalf("pruned records sum to %d, stats report %d",
			total, res.Stats.BoundPruned+res.Stats.DominatedPruned)
	}
}

// TestExplainDisabledIsFree checks the default path books nothing.
func TestExplainDisabledIsFree(t *testing.T) {
	base := baseCfg(t)
	sim := newFakeSim()
	res := plan(t, base, space(), sim, WithStrategy(BranchAndBound{}))
	if res.Stats.Simulated == 0 {
		t.Fatal("search simulated nothing")
	}
}

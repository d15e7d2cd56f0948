package planner

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"lumos/internal/memcost"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

func baseCfg(t *testing.T) parallel.Config {
	t.Helper()
	m, err := topology.NewMapping(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = 8
	return cfg
}

// fakeSim simulates a point as a deterministic distortion of its analytic
// bound, so strategy behavior can be tested without the real simulator. The
// distortion reorders near neighbors (exercising measured-vs-bound
// promotion) while keeping the global best stable.
type fakeSim struct {
	calls   int
	points  int
	unique  map[string]int
	perturb func(c Candidate) trace.Dur
}

func newFakeSim() *fakeSim {
	return &fakeSim{
		unique: map[string]int{},
		perturb: func(c Candidate) trace.Dur {
			// Stable pseudo-noise from the key: ±6% of the bound.
			var h uint64 = 1469598103934665603
			for _, b := range []byte(c.Point.Key()) {
				h = (h ^ uint64(b)) * 1099511628211
			}
			f := 0.94 + 0.12*float64(h%1000)/1000
			return trace.Dur(float64(c.Bound) * f)
		},
	}
}

func (s *fakeSim) fn(_ context.Context, cands []Candidate) ([]Outcome, error) {
	s.calls++
	s.points += len(cands)
	outs := make([]Outcome, len(cands))
	for i, c := range cands {
		s.unique[c.Point.Key()]++
		outs[i] = Outcome{Iteration: s.perturb(c)}
	}
	return outs, nil
}

func space() Space {
	return Space{
		PP:         []int{1, 2, 4},
		DP:         []int{1, 2, 4},
		Microbatch: []int{4, 8},
	}
}

func TestSpaceLazyExpansion(t *testing.T) {
	base := baseCfg(t)
	s := space()
	if got, want := s.Size(base), 3*3*2; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	var keys []string
	s.ForEach(base, func(p Point) bool {
		if p.TP != base.Map.TP {
			t.Fatalf("empty TP dimension must pin the base degree, got %d", p.TP)
		}
		keys = append(keys, p.Key())
		return true
	})
	if len(keys) != s.Size(base) {
		t.Fatalf("ForEach yielded %d points, want %d", len(keys), s.Size(base))
	}
	// Deterministic order, unique keys.
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatalf("duplicate point %s", k)
		}
		seen[k] = true
	}
	// Early stop.
	n := 0
	s.ForEach(base, func(Point) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("yield=false did not stop the walk (saw %d)", n)
	}
}

// TestSizeSaturates: 600 distinct values on each of the seven axes make
// about 2.8·10¹⁹ points, past MaxInt64. Size saturates instead of wrapping
// to a negative count that would pass any size limit.
func TestSizeSaturates(t *testing.T) {
	base := baseCfg(t)
	var s Space
	for i := 1; i <= 600; i++ {
		s.TP, s.PP, s.DP = append(s.TP, i), append(s.PP, i), append(s.DP, i)
		s.Microbatch = append(s.Microbatch, i)
		s.Schedules = append(s.Schedules, fmt.Sprintf("interleaved%d", i+1))
		s.Fabrics = append(s.Fabrics, topology.OversubscribedFabric(8, 1+float64(i)/1000))
		s.Degrade = append(s.Degrade, []float64{1, float64(i) / 1000})
	}
	if got := s.Size(base); got != math.MaxInt {
		t.Fatalf("Size = %d, want math.MaxInt", got)
	}
	s.Fabrics = nil
	if got, want := s.Size(base), 600*600*600*600*600*600; got != want {
		t.Fatalf("Size without fabrics = %d, want %d", got, want)
	}
}

func TestCandidateRejections(t *testing.T) {
	base := baseCfg(t)
	b := NewBounder(base, topology.H100Cluster(64), memcost.Model{})

	if c := b.Candidate(Point{TP: 4, PP: 2, DP: 2, Microbatches: 8}); c.Infeasible == "" || c.OOM {
		t.Fatalf("TP change must be a scope rejection, got %+v", c)
	}
	if c := b.Candidate(Point{TP: 2, PP: 5, DP: 2, Microbatches: 8}); c.Infeasible == "" {
		t.Fatal("invalid layer partition must be rejected")
	}
	// A 1-byte device OOMs everything.
	tiny := NewBounder(base, topology.H100Cluster(64), memcost.Model{GPUMemBytes: 2 << 30, ReserveBytes: 1 << 30})
	if c := tiny.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 8}); !c.OOM {
		t.Fatalf("expected OOM rejection, got %+v", c)
	}
	// Bad degradation factors are construction-time rejections.
	if c := b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 8, Degrade: []float64{-1}}); c.Infeasible == "" {
		t.Fatal("negative degrade factor must reject the candidate")
	}
	good := b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 8})
	if good.Infeasible != "" || good.Bound <= 0 {
		t.Fatalf("feasible candidate got %+v", good)
	}
}

func TestBoundOrdersObviousCases(t *testing.T) {
	base := baseCfg(t)
	b := NewBounder(base, topology.H100Cluster(64), memcost.Model{})
	fast := b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 8})
	slowNet := b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 8, Degrade: []float64{0.25}})
	if !(fast.Bound < slowNet.Bound) {
		t.Fatalf("degraded links must bound slower: %d vs %d", fast.Bound, slowNet.Bound)
	}
	// A degradation beyond the single node this 8-GPU world occupies is a
	// no-op on the bound.
	outer := b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 8, Degrade: []float64{1, 0.25}})
	if outer.Bound != fast.Bound {
		t.Fatalf("outer-tier degrade changed an intra-node bound: %d vs %d", outer.Bound, fast.Bound)
	}
	moreMB := b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 16})
	if !(fast.Bound < moreMB.Bound) {
		t.Fatalf("more microbatches must bound slower: %d vs %d", fast.Bound, moreMB.Bound)
	}
}

func plan(t *testing.T, base parallel.Config, s Space, sim *fakeSim, opts ...Option) *Result {
	t.Helper()
	res, err := Plan(context.Background(), base, s, topology.H100Cluster(64), sim.fn, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExhaustiveSimulatesAllFeasible(t *testing.T) {
	base := baseCfg(t)
	sim := newFakeSim()
	res := plan(t, base, space(), sim, WithStrategy(Exhaustive{}))
	if res.Stats.Simulated != res.Stats.Feasible {
		t.Fatalf("exhaustive simulated %d of %d feasible", res.Stats.Simulated, res.Stats.Feasible)
	}
	if got := len(res.Frontier) + len(res.Dominated); got != res.Stats.Feasible {
		t.Fatalf("frontier+dominated = %d, want %d", got, res.Stats.Feasible)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier")
	}
	// Frontier is ranked fastest-first and contains the global best.
	best := res.Frontier[0]
	for _, e := range append(append([]Evaluated{}, res.Frontier...), res.Dominated...) {
		if e.Iteration < best.Iteration {
			t.Fatalf("frontier[0] %v slower than %v", best.Iteration, e.Iteration)
		}
	}
}

func TestBudgetCapsSimulations(t *testing.T) {
	base := baseCfg(t)
	sim := newFakeSim()
	res := plan(t, base, space(), sim, WithStrategy(Exhaustive{}), WithBudget(5))
	if res.Stats.Simulated != 5 {
		t.Fatalf("budget 5, simulated %d", res.Stats.Simulated)
	}
}

func TestPlanDeterminism(t *testing.T) {
	base := baseCfg(t)
	for _, strat := range []Strategy{Exhaustive{}, BranchAndBound{}} {
		a := plan(t, base, space(), newFakeSim(), WithStrategy(strat))
		b := plan(t, base, space(), newFakeSim(), WithStrategy(strat))
		if !reflect.DeepEqual(a.Stats, b.Stats) {
			t.Fatalf("%s stats differ: %+v vs %+v", strat.Name(), a.Stats, b.Stats)
		}
		keysOf := func(es []Evaluated) []string {
			out := make([]string, len(es))
			for i, e := range es {
				out[i] = e.Point.Key()
			}
			return out
		}
		if !reflect.DeepEqual(keysOf(a.Frontier), keysOf(b.Frontier)) ||
			!reflect.DeepEqual(keysOf(a.Dominated), keysOf(b.Dominated)) {
			t.Fatalf("%s result order differs across runs", strat.Name())
		}
	}
}

func TestParetoSplit(t *testing.T) {
	mk := func(key string, iter trace.Dur, world int, mem int64) Evaluated {
		// World is derived from the point; encode via DP with TP=PP=1.
		return Evaluated{
			Candidate: Candidate{
				Point: Point{TP: 1, PP: 1, DP: world, Microbatches: 1},
				Mem:   memcost.Estimate{Weights: mem},
			},
			Iteration: iter,
		}
	}
	fast := mk("fast", 100, 8, 10)    // fastest, big
	cheap := mk("cheap", 300, 2, 10)  // slow, tiny
	balanced := mk("bal", 200, 4, 10) // middle of both: non-dominated
	worse := mk("worse", 250, 4, 10)  // dominated by balanced
	memHog := mk("hog", 200, 4, 50)   // dominated by balanced (same time/gpus, more mem)
	frontier, dominated := paretoSplit([]Evaluated{worse, cheap, balanced, fast, memHog})
	if len(frontier) != 3 {
		t.Fatalf("frontier size %d, want 3: %+v", len(frontier), frontier)
	}
	if frontier[0].Iteration != fast.Iteration {
		t.Fatal("frontier must rank fastest first")
	}
	if len(dominated) != 2 {
		t.Fatalf("dominated size %d, want 2", len(dominated))
	}
	if dominated[0].Iteration > dominated[1].Iteration {
		t.Fatal("dominated points must be ranked by iteration")
	}
}

func TestMemPruningReported(t *testing.T) {
	base := baseCfg(t)
	sim := newFakeSim()
	// A 16 GiB device OOMs the dense points but leaves some feasible.
	res := plan(t, base, space(), sim,
		WithStrategy(Exhaustive{}),
		WithMemModel(memcost.Model{GPUMemBytes: 26 << 30, ReserveBytes: 2 << 30}))
	if res.Stats.MemRejected == 0 {
		t.Fatal("expected memory-model rejections")
	}
	if res.Stats.MemRejected+res.Stats.ScopeRejected+res.Stats.Feasible != res.Stats.SpaceSize {
		t.Fatalf("stats do not partition the space: %+v", res.Stats)
	}
	if len(res.Infeasible) == 0 {
		t.Fatal("rejected points must be retained with reasons")
	}
	for _, c := range res.Infeasible {
		if c.Infeasible == "" {
			t.Fatalf("retained infeasible point without a reason: %+v", c)
		}
	}
	if res.Stats.Simulated != res.Stats.Feasible {
		t.Fatal("pre-filtered points must not be simulated")
	}
}

func TestScheduleAxisExpansion(t *testing.T) {
	base := baseCfg(t)
	s := Space{PP: []int{2, 4}, Schedules: []string{"", "interleaved2", "zb-h1"}}
	if got, want := s.Size(base), 6; got != want {
		t.Fatalf("Size = %d, want %d", got, want)
	}
	var keys []string
	s.ForEach(base, func(p Point) bool {
		keys = append(keys, p.Key())
		return true
	})
	if keys[0] != "2x2x2/mb8" || keys[1] != "2x2x2/mb8/interleaved2" || keys[2] != "2x2x2/mb8/zb-h1" {
		t.Fatalf("schedule keys wrong: %v", keys[:3])
	}
	// The schedule flows into the derived deployment.
	p := Point{TP: 2, PP: 2, DP: 2, Microbatches: 8, Schedule: "interleaved2"}
	target := p.Config(base)
	if target.Schedule != parallel.Interleaved || target.VirtualStages != 2 {
		t.Fatalf("schedule not applied: %+v", target)
	}
	if p := (Point{TP: 2, PP: 2, DP: 2, Microbatches: 8, Schedule: "zb-h1"}); p.Config(base).Schedule != parallel.ZBH1 {
		t.Fatal("zb-h1 not applied")
	}
}

func TestScheduleCandidateClassification(t *testing.T) {
	base := baseCfg(t)
	b := NewBounder(base, nil, memcost.Model{})

	// Unknown spec names are rejected with the full schedule menu.
	c := b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 8, Schedule: "zb-v"})
	if c.Infeasible == "" || !c.BadSchedule {
		t.Fatalf("unknown schedule must be BadSchedule-infeasible: %+v", c)
	}
	if !strings.Contains(c.Infeasible, "1f1b") || !strings.Contains(c.Infeasible, "interleaved") {
		t.Fatalf("rejection must spell the schedule menu: %q", c.Infeasible)
	}

	// A known schedule the mapping cannot run (interleaved needs
	// microbatches divisible by PP) classifies as BadSchedule too.
	c = b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 7, Schedule: "interleaved2"})
	if c.Infeasible == "" || !c.BadSchedule {
		t.Fatalf("incompatible schedule must be BadSchedule-infeasible: %+v", c)
	}

	// Layers indivisible only because of the schedule's chunking (48 layers
	// fit PP=2 but not 2×32 chunks): still a schedule rejection, not scope.
	c = b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 8, Schedule: "interleaved32"})
	if c.Infeasible == "" || !c.BadSchedule {
		t.Fatalf("chunk-indivisible layers must be BadSchedule-infeasible: %+v", c)
	}

	// Plan-level stats bucket them separately from scope rejections.
	sim := newFakeSim()
	res, err := Plan(context.Background(), base,
		Space{Schedules: []string{"", "zb-v", "interleaved2", "zb-h1"}},
		nil, sim.fn)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ScheduleRejected != 1 {
		t.Fatalf("ScheduleRejected = %d, want 1 (zb-v): %+v", res.Stats.ScheduleRejected, res.Stats)
	}
	if res.Stats.Feasible != 3 {
		t.Fatalf("Feasible = %d, want 3", res.Stats.Feasible)
	}
}

func TestScheduleBoundEconomics(t *testing.T) {
	base := baseCfg(t)
	b := NewBounder(base, nil, memcost.Model{})
	bound := func(sched string) trace.Dur {
		c := b.Candidate(Point{TP: 2, PP: 2, DP: 2, Microbatches: 8, Schedule: sched})
		if c.Infeasible != "" {
			t.Fatalf("%s: %s", sched, c.Infeasible)
		}
		return c.Bound
	}
	fb := bound("1f1b")
	if il := bound("interleaved2"); il >= fb {
		t.Fatalf("interleaved2 bound %v not < 1F1B %v", il, fb)
	}
	if zb := bound("zb-h1"); zb >= fb {
		t.Fatalf("zb-h1 bound %v not < 1F1B %v", zb, fb)
	}
	// The empty schedule inherits the base (1F1B here): identical bound.
	if inherit := bound(""); inherit != fb {
		t.Fatalf("inherited bound %v != explicit 1f1b %v", inherit, fb)
	}
}

// TestDefaultStrategyRule: with no strategy set, Plan searches a space of
// at most AutoThreshold points exhaustively and a larger one by
// branch-and-bound, deciding from Space.Size before any point is screened,
// so a large space with few feasible points still gets branch-and-bound.
func TestDefaultStrategyRule(t *testing.T) {
	base := baseCfg(t)
	mbs := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = 4 + i
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		space Space
		size  int
		want  string
	}{
		{"at threshold", Space{PP: []int{1, 2, 4}, DP: []int{1, 2, 4, 8}, Microbatch: []int{4, 8}}, AutoThreshold, "exhaustive"},
		{"over threshold", Space{Microbatch: mbs(AutoThreshold + 1)}, AutoThreshold + 1, "bnb"},
		{"over threshold, half unknown schedule", Space{Microbatch: mbs(13), Schedules: []string{"", "zb-v"}}, 26, "bnb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.space.Size(base); got != tc.size {
				t.Fatalf("Size = %d, want %d", got, tc.size)
			}
			e := &Explain{}
			res := plan(t, base, tc.space, newFakeSim(), WithExplain(e))
			if res.Strategy != tc.want {
				t.Fatalf("Strategy = %q, want %q", res.Strategy, tc.want)
			}
			if e.Strategy != res.Strategy {
				t.Errorf("explain strategy = %q, result %q", e.Strategy, res.Strategy)
			}
			if tc.want == "exhaustive" && res.Stats.Simulated != res.Stats.Feasible {
				t.Errorf("exhaustive simulated %d of %d feasible", res.Stats.Simulated, res.Stats.Feasible)
			}
			if tc.want == "bnb" && res.Stats.BoundPruned+res.Stats.DominatedPruned == 0 {
				t.Errorf("bnb pruned nothing: %+v", res.Stats)
			}
		})
	}
}

// TestRepeatedAxisValuesPlanOnce: a value repeated on a space axis — the
// same degree or microbatch count, a schedule name in another case or with
// spaces, an equal degrade vector, an equal fabric — is one point, under
// both strategies.
func TestRepeatedAxisValuesPlanOnce(t *testing.T) {
	base := baseCfg(t)
	for _, tc := range []struct {
		name  string
		space Space
	}{
		{"degrees and microbatches", Space{PP: []int{2, 2}, DP: []int{1}, Microbatch: []int{4, 4}}},
		{"schedule names", Space{DP: []int{1}, Schedules: []string{"1f1b", " 1F1B"}}},
		{"degrade vectors", Space{DP: []int{1}, Degrade: [][]float64{{1, 0.5}, {1, 0.5}}}},
		{"fabrics", Space{DP: []int{1}, Fabrics: []topology.Fabric{topology.H100Cluster(64), topology.H100Cluster(64)}}},
	} {
		for _, strat := range []Strategy{Exhaustive{}, BranchAndBound{}} {
			t.Run(tc.name+"/"+strat.Name(), func(t *testing.T) {
				if got := tc.space.Size(base); got != 1 {
					t.Fatalf("Size = %d, want 1", got)
				}
				n := 0
				tc.space.ForEach(base, func(Point) bool { n++; return true })
				if n != 1 {
					t.Fatalf("ForEach yielded %d points, want 1", n)
				}
				res := plan(t, base, tc.space, newFakeSim(), WithStrategy(strat))
				st := res.Stats
				if got := len(res.Frontier) + len(res.Dominated); got != 1 {
					t.Fatalf("%d points returned, want 1", got)
				}
				if st.SpaceSize != 1 || st.Feasible != 1 || st.Simulated != 1 {
					t.Fatalf("stats %+v, want one point", st)
				}
			})
		}
	}
}

// Package planner is the deployment-search subsystem: exact search of the
// joint parallelism × microbatch × schedule × fabric space on top of the
// sweep engine. The layering is analytic-bounds-before-simulation: a
// declarative Space expands lazily, every point passes through the memcost
// feasibility model and a roofline + collective-pricer cost bound, and one
// of two exact strategies decides which survivors are promoted to full
// graph simulation. Exhaustive simulates every feasible point;
// BranchAndBound uses the admissible bound to prune subtrees that cannot
// beat the best simulated time, and returns the same best point. With no
// strategy set, Plan picks Exhaustive for spaces of at most AutoThreshold
// points and BranchAndBound beyond. The result is multi-objective: the
// non-dominated simulated points over (iteration time, GPU count, peak
// memory), with ranked dominated points retained.
//
// The planner owns no simulator: callers hand it a Simulate callback
// (internal/core binds it to scenario evaluation against a shared
// BaseState), which keeps the search logic deterministic at any worker
// count — candidate ordering and promotion decisions happen
// single-threaded here, and only the embarrassingly parallel point
// evaluations fan out.
package planner

import (
	"context"
	"sort"

	"lumos/internal/collective"
	"lumos/internal/memcost"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// Outcome is one simulated point's result, parallel to the Simulate input.
type Outcome struct {
	// Iteration is the predicted per-iteration time.
	Iteration trace.Dur
	// SharedStructure reports that the point re-timed a structurally
	// shared execution graph instead of synthesizing its own (see
	// Stats.SharedStructure).
	SharedStructure bool
	// Err is non-empty when the simulation rejected or failed the point.
	Err string
}

// Simulate promotes a batch of candidates to full graph simulation and
// returns one outcome per candidate, in order. Implementations must be
// deterministic functions of the candidate set (worker-count independent).
// No strategy submits a point twice within one plan, so memoization pays
// only across plans: internal/core's scenario memo serves a point that an
// earlier plan on the same campaign state already simulated.
type Simulate func(ctx context.Context, cands []Candidate) ([]Outcome, error)

// Evaluated is a candidate with its simulation outcome.
type Evaluated struct {
	Candidate
	// Iteration is the simulated per-iteration time.
	Iteration trace.Dur
	// Err is non-empty when simulation failed the point.
	Err string
}

// Strategy is one of the two exact searches: Exhaustive or BranchAndBound.
// Both return the same best point; they differ in how many points they
// simulate and in how much of the Pareto frontier they return (see Result).
type Strategy interface {
	// Name labels the strategy in results and benchmark output.
	Name() string
	// search expands s's space, books its rejections into s's stats, and
	// returns every candidate it promoted to simulation.
	search(ctx context.Context, s *spaceSearch) ([]Evaluated, error)
}

// spaceSearch is the context a strategy searches in: the lazily expandable
// space, the bounder, the metered simulator, and the shared stats and
// rejection sinks.
type spaceSearch struct {
	base    parallel.Config
	space   Space
	bounder *Bounder
	budget  int
	sim     Simulate
	stats   *Stats
	// rej books analytically rejected points and keeps the first few.
	rej *rejections
	// tracer, when non-nil, receives per-round pop/prune instant events on
	// the "search" category (the metered simulator adds the simulate ones).
	tracer *obs.Tracer
	// explain, when non-nil, collects per-subtree prune records (the
	// metered simulator collects the per-point simulation records).
	explain *Explain
}

// Exhaustive screens every point of the space and simulates every feasible
// one in a single batch, in bound order (truncated by bound under a
// budget). Its frontier is the space's Pareto frontier, which makes it the
// reference for small spaces and the oracle BranchAndBound is tested
// against.
type Exhaustive struct{}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

func (Exhaustive) search(ctx context.Context, s *spaceSearch) ([]Evaluated, error) {
	var pool []Candidate
	s.space.ForEach(s.base, func(p Point) bool {
		s.stats.SpaceSize++
		if c, ok := s.bounder.screen(p, s.rej.room()); ok {
			pool = append(pool, c)
		} else {
			s.rej.book(c)
		}
		return true
	})
	s.stats.Feasible = len(pool)
	sort.SliceStable(pool, func(i, j int) bool {
		if pool[i].Bound != pool[j].Bound {
			return pool[i].Bound < pool[j].Bound
		}
		return pool[i].Point.Key() < pool[j].Point.Key()
	})
	if s.budget > 0 && len(pool) > s.budget {
		pool = pool[:s.budget]
	}
	outs, err := s.sim(ctx, pool)
	if err != nil {
		return nil, err
	}
	return zip(pool, outs), nil
}

// zip pairs candidates with their outcomes.
func zip(cands []Candidate, outs []Outcome) []Evaluated {
	es := make([]Evaluated, len(cands))
	for i, c := range cands {
		es[i] = Evaluated{Candidate: c}
		if i < len(outs) {
			es[i].Iteration = outs[i].Iteration
			es[i].Err = outs[i].Err
		} else {
			es[i].Err = "no outcome returned"
		}
	}
	return es
}

// rankEvaluated orders evaluated points fastest-first (failed last), key
// tiebreaks, matching the sweep engine's ranking contract.
func rankEvaluated(es []Evaluated) {
	sort.SliceStable(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if (a.Err == "") != (b.Err == "") {
			return a.Err == ""
		}
		if a.Iteration != b.Iteration {
			return a.Iteration < b.Iteration
		}
		return a.Point.Key() < b.Point.Key()
	})
}

// --- Engine -----------------------------------------------------------------

// Options configures a plan run.
type Options struct {
	// Strategy selects the search. Nil picks Exhaustive for spaces of at
	// most AutoThreshold points and BranchAndBound beyond.
	Strategy Strategy
	// Budget caps the number of unique points promoted to simulation;
	// 0 means no cap.
	Budget int
	// Mem is the memory-feasibility model (zero value: 80 GiB H100, plain
	// DDP).
	Mem memcost.Model
	// Tracer, when non-nil, receives per-round search events (pop, prune,
	// simulate, with the running incumbent) on the "search" category. Nil
	// disables tracing with zero overhead.
	Tracer *obs.Tracer
	// Explain, when non-nil, is filled with the structured search report:
	// one record per simulated point (bound vs actual) and per pruned
	// subtree (head, bound, incumbent at prune). Nil disables capture.
	Explain *Explain
}

// ExplainSim is one simulated point in an Explain report: the analytic
// lower bound the search ranked it by against the simulated actual.
type ExplainSim struct {
	// Point is the candidate's canonical key.
	Point string `json:"point"`
	// Round is the 1-based simulation batch that promoted the point.
	Round int `json:"round"`
	// BoundMs is the admissible analytic lower bound, in milliseconds.
	BoundMs float64 `json:"bound_ms"`
	// ActualMs is the simulated iteration time, 0 when the simulation
	// rejected the point (see Err).
	ActualMs float64 `json:"actual_ms"`
	// Err is the simulation failure, empty on success.
	Err string `json:"err,omitempty"`
}

// ExplainPrune is one discarded subtree in an Explain report.
type ExplainPrune struct {
	// Head is the canonical key of the subtree's cheapest unexplored point.
	Head string `json:"head"`
	// BoundMs is the head's admissible lower bound, in milliseconds.
	BoundMs float64 `json:"bound_ms"`
	// Points is how many points the subtree held (head plus the untried
	// microbatch tail).
	Points int `json:"points"`
	// IncumbentMs is the best simulated iteration time at the moment of the
	// prune — the value the head's bound exceeded.
	IncumbentMs float64 `json:"incumbent_ms"`
	// Dominated reports that an already simulated point was at least as
	// good on every frontier objective (the Stats.DominatedPruned bucket);
	// false is the plain bound prune.
	Dominated bool `json:"dominated"`
}

// Explain is the structured account of a search: what was simulated and
// why, what was pruned and against which incumbent. Its totals tie back to
// Stats exactly: len(Simulated) == Stats.Simulated and PrunedPoints() ==
// Stats.BoundPruned + Stats.DominatedPruned, so the report is an auditable
// expansion of the counters, not a parallel bookkeeping. Capture is
// single-threaded (strategies call the simulator sequentially), so the
// report needs no locking.
type Explain struct {
	// Strategy names the search that produced the report.
	Strategy string `json:"strategy"`
	// Simulated holds one record per unique point promoted to simulation,
	// in promotion order.
	Simulated []ExplainSim `json:"simulated"`
	// Pruned holds one record per wholesale-discarded subtree, in prune
	// order. Empty under Exhaustive.
	Pruned []ExplainPrune `json:"pruned,omitempty"`
}

// SimulatedCount is len(Simulated) — equal to Stats.Simulated.
func (e *Explain) SimulatedCount() int { return len(e.Simulated) }

// PrunedPoints sums the points across pruned subtrees — equal to
// Stats.BoundPruned + Stats.DominatedPruned.
func (e *Explain) PrunedPoints() int {
	total := 0
	for _, p := range e.Pruned {
		total += p.Points
	}
	return total
}

// Option mutates Options.
type Option func(*Options)

// WithStrategy selects the search strategy.
func WithStrategy(s Strategy) Option { return func(o *Options) { o.Strategy = s } }

// WithBudget caps the number of unique points simulated.
func WithBudget(n int) Option { return func(o *Options) { o.Budget = n } }

// WithMemModel overrides the memory-feasibility model.
func WithMemModel(m memcost.Model) Option { return func(o *Options) { o.Mem = m } }

// WithTracer attaches an observability tracer: the search emits per-round
// pop/prune/simulate instant events carrying the incumbent value. A nil
// tracer (the default) is a no-op.
func WithTracer(t *obs.Tracer) Option { return func(o *Options) { o.Tracer = t } }

// WithExplain captures the structured search report into e: per simulated
// point the bound vs the actual, per pruned subtree the head, bound and
// incumbent. A nil e (the default) disables capture.
func WithExplain(e *Explain) Option { return func(o *Options) { o.Explain = e } }

// AutoThreshold is the space size (Space.Size, counted before any point
// is screened) up to which the nil strategy is Exhaustive; larger spaces
// get BranchAndBound.
const AutoThreshold = 24

// maxInfeasible caps how many rejected points a Result retains with their
// reasons; the rejection counts in Stats are always exact.
const maxInfeasible = 32

// Stats reports how the search spent its effort.
type Stats struct {
	// SpaceSize is the full expansion of the space.
	SpaceSize int
	// Feasible is how many points survived the analytic pre-filters.
	Feasible int
	// MemRejected counts points the memory model ruled out (no simulation
	// spent); ScheduleRejected counts points whose pipeline schedule was
	// unknown or cannot run on the mapping; ScopeRejected counts the
	// remaining invalid or out-of-scope points.
	MemRejected, ScheduleRejected, ScopeRejected int
	// Simulated is the number of unique points promoted to full graph
	// simulation; SimRequests the total point-evaluations requested. No
	// strategy re-submits a point, so the two are equal.
	Simulated, SimRequests int
	// Rounds is the number of simulation batches the strategy ran.
	Rounds int
	// BoundPruned counts points branch-and-bound discarded because their
	// subtree's admissible lower bound exceeded the incumbent simulated
	// time; DominatedPruned the subset additionally dominated by an
	// already simulated point on every frontier objective. Both are zero
	// under Exhaustive. Under a budget the
	// unexplored remainder is counted in neither bucket, so the partition
	// SpaceSize = rejections + Feasible + pruned holds only budget-free.
	BoundPruned, DominatedPruned int
	// SharedStructure counts simulated points that re-timed a structurally
	// shared execution graph (same slot DAG, different durations) instead
	// of synthesizing and binding their own.
	SharedStructure int
	// BoundViolations counts simulated points whose analytic bound exceeded
	// their simulated iteration time. Bound pruning is exact only while
	// the bound is admissible, so a nonzero count means a pruned subtree
	// may have held a faster point.
	BoundViolations int
}

// Result is a completed plan: the simulated points that no other simulated
// point dominates over (iteration time, GPU count, peak memory), the
// dominated simulated points ranked by iteration time, and the
// analytically rejected points with their reasons. Only Exhaustive
// simulates every feasible point, so only its Frontier is the space's
// Pareto frontier. BranchAndBound's best point is exact, but it prunes on
// iteration time alone, so its Frontier can miss a slower point that uses
// fewer GPUs or less memory.
type Result struct {
	// Strategy names the search that produced the result.
	Strategy string
	// Frontier holds the non-dominated simulated points, fastest first.
	Frontier []Evaluated
	// Dominated holds simulated feasible points not on the frontier,
	// ranked by iteration time.
	Dominated []Evaluated
	// Infeasible holds analytically rejected points (OOM, scope, bad
	// fabric) and simulation failures, with reasons: the first 32.
	Infeasible []Candidate
	// Stats reports search effort.
	Stats Stats
}

// Best returns the frontier's fastest point.
func (r *Result) Best() (Evaluated, bool) {
	if len(r.Frontier) == 0 {
		return Evaluated{}, false
	}
	return r.Frontier[0], true
}

// Plan runs the search: expand the space lazily, pre-filter with the
// memory model and analytic bounds, let the strategy promote survivors to
// the Simulate callback, and assemble the Pareto frontier of what was
// simulated.
func Plan(ctx context.Context, base parallel.Config, space Space,
	fabric topology.Fabric, pricer func(topology.Fabric) collective.Pricer,
	sim Simulate, opts ...Option) (*Result, error) {

	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	bounder := NewBounder(base, fabric, pricer, o.Mem)
	stats := Stats{}
	rej := &rejections{stats: &stats}

	// The engine meters the strategy's use of the simulator: points
	// promoted, batch rounds, and structure sharing and bound violations
	// among the simulated points. Space dedups its axes and no strategy
	// promotes a point twice, so every candidate is a fresh point.
	metered := func(ctx context.Context, cands []Candidate) ([]Outcome, error) {
		stats.Rounds++
		stats.SimRequests += len(cands)
		stats.Simulated += len(cands)
		outs, err := sim(ctx, cands)
		if err != nil {
			return nil, err
		}
		best := trace.Dur(0)
		for i, c := range cands {
			if i >= len(outs) {
				break
			}
			out := outs[i]
			if out.SharedStructure {
				stats.SharedStructure++
			}
			if out.Err == "" {
				if c.Bound > out.Iteration {
					stats.BoundViolations++
				}
				if best == 0 || out.Iteration < best {
					best = out.Iteration
				}
			}
			if o.Explain != nil {
				rec := ExplainSim{
					Point:   c.Point.Key(),
					Round:   stats.Rounds,
					BoundMs: float64(c.Bound) / 1e6,
					Err:     out.Err,
				}
				if out.Err == "" {
					rec.ActualMs = float64(out.Iteration) / 1e6
				}
				o.Explain.Simulated = append(o.Explain.Simulated, rec)
			}
		}
		if o.Tracer != nil {
			o.Tracer.Instant("search", "simulate", map[string]any{
				"round": stats.Rounds, "batch": len(cands),
				"best_ms": float64(best) / 1e6,
			})
		}
		return outs, nil
	}

	strat := o.Strategy
	if strat == nil {
		if space.Size(base) <= AutoThreshold {
			strat = Exhaustive{}
		} else {
			strat = BranchAndBound{}
		}
	}
	evaluated, err := strat.search(ctx, &spaceSearch{
		base: base, space: space, bounder: bounder,
		budget: o.Budget, sim: metered, stats: &stats, rej: rej,
		tracer: o.Tracer, explain: o.Explain,
	})
	if err != nil {
		return nil, err
	}

	var ok []Evaluated
	for _, e := range evaluated {
		if e.Err == "" {
			ok = append(ok, e)
			continue
		}
		c := e.Candidate
		c.Infeasible = "simulation: " + e.Err
		rej.keep(c)
	}
	frontier, dominated := paretoSplit(ok)

	if o.Explain != nil {
		o.Explain.Strategy = strat.Name()
	}
	return &Result{
		Strategy:   strat.Name(),
		Frontier:   frontier,
		Dominated:  dominated,
		Infeasible: rej.kept,
		Stats:      stats,
	}, nil
}

// rejections books analytically rejected points into the Stats buckets and
// keeps the first maxInfeasible of them, with their reasons, for
// Result.Infeasible. Callers screen a point with a reason only while room
// remains, so the points past the cap are counted without one.
type rejections struct {
	kept  []Candidate
	stats *Stats
}

// room reports whether the next rejection is kept (and so needs a reason).
func (r *rejections) room() bool { return len(r.kept) < maxInfeasible }

// keep retains c while room remains.
func (r *rejections) keep(c Candidate) {
	if r.room() {
		r.kept = append(r.kept, c)
	}
}

// book counts one rejected point in its bucket and keeps it while room
// remains.
func (r *rejections) book(c Candidate) {
	switch {
	case c.OOM:
		r.stats.MemRejected++
	case c.BadSchedule:
		r.stats.ScheduleRejected++
	default:
		r.stats.ScopeRejected++
	}
	r.keep(c)
}

// dominates reports whether a Pareto-dominates b over (iteration time, GPU
// count, peak memory): no worse on every objective, better on at least one.
func dominates(a, b Evaluated) bool {
	if a.Iteration > b.Iteration || a.Point.World() > b.Point.World() || a.Mem.Total() > b.Mem.Total() {
		return false
	}
	return a.Iteration < b.Iteration || a.Point.World() < b.Point.World() || a.Mem.Total() < b.Mem.Total()
}

// paretoSplit partitions evaluated points into the frontier and the
// ranked dominated remainder.
func paretoSplit(es []Evaluated) (frontier, dominated []Evaluated) {
	rankEvaluated(es)
	for i, e := range es {
		dom := false
		for j, other := range es {
			if i != j && dominates(other, e) {
				dom = true
				break
			}
		}
		if dom {
			dominated = append(dominated, e)
		} else {
			frontier = append(frontier, e)
		}
	}
	return frontier, dominated
}

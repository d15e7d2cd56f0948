// Package planner is the deployment-search subsystem: guided exploration
// of the joint parallelism × microbatch × fabric space on top of the sweep
// engine. The layering is analytic-bounds-before-simulation: a declarative
// Space expands lazily, every point passes through the memcost
// feasibility model and a roofline + collective-pricer cost bound, and a
// pluggable search strategy (exhaustive, beam, successive halving) decides
// which survivors are promoted to full graph simulation. The result is
// multi-objective: the Pareto frontier over (iteration time, GPU count,
// peak memory), with ranked dominated points retained.
//
// The planner owns no simulator: callers hand it a Simulate callback
// (internal/core binds it to scenario evaluation against a shared
// BaseState), which keeps the search logic deterministic at any worker
// count — candidate ordering, exploration draws (seeded rng) and
// promotion decisions all happen single-threaded here, and only the
// embarrassingly parallel point evaluations fan out.
package planner

import (
	"context"
	"fmt"
	"sort"

	"lumos/internal/collective"
	"lumos/internal/memcost"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/rng"
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
// deterministic functions of the candidate set (worker-count independent)
// and are expected to memoize: strategies deliberately re-submit survivors
// across rounds.
type Simulate func(ctx context.Context, cands []Candidate) ([]Outcome, error)

// Evaluated is a candidate with its simulation outcome.
type Evaluated struct {
	Candidate
	// Iteration is the simulated per-iteration time.
	Iteration trace.Dur
	// Err is non-empty when simulation failed the point.
	Err string
}

// Strategy decides which feasible candidates are promoted to simulation.
// Implementations receive the candidates in deterministic space order and
// must themselves be deterministic; budget > 0 caps the number of unique
// points they may promote.
type Strategy interface {
	// Name labels the strategy in results and benchmark output.
	Name() string
	// Search runs the strategy and returns every evaluated candidate.
	Search(ctx context.Context, cands []Candidate, budget int, sim Simulate) ([]Evaluated, error)
}

// sortByBound orders candidates by analytic bound, point key breaking ties,
// and returns a fresh slice.
func sortByBound(cands []Candidate) []Candidate {
	out := make([]Candidate, len(cands))
	copy(out, cands)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Bound != out[j].Bound {
			return out[i].Bound < out[j].Bound
		}
		return out[i].Point.Key() < out[j].Point.Key()
	})
	return out
}

// ceilDiv is ceiling division for positive ints.
func ceilDiv(x, d int) int {
	if d < 1 {
		return x
	}
	return (x + d - 1) / d
}

// frontierPicks drafts up to k frontier-coverage extras: candidates from
// pool (bound order preserved) that nothing already picked analytically
// dominates on the objectives the final frontier ranks — cost bound, GPU
// count, peak memory. Ranking cohorts on the bound alone culls
// memory-cheap or small-world points that would have survived the
// multi-objective split; these picks are their insurance. Returns the
// picks and the un-picked remainder of pool.
func frontierPicks(picked, pool []Candidate, k int) (picks, rest []Candidate) {
	for _, c := range pool {
		if len(picks) >= k {
			rest = append(rest, c)
			continue
		}
		dominated := false
		for _, lists := range [2][]Candidate{picked, picks} {
			for _, p := range lists {
				if p.Bound <= c.Bound && p.Point.World() <= c.Point.World() && p.Mem.Total() <= c.Mem.Total() {
					dominated = true
					break
				}
			}
			if dominated {
				break
			}
		}
		if dominated {
			rest = append(rest, c)
		} else {
			picks = append(picks, c)
		}
	}
	return picks, rest
}

// --- Exhaustive -------------------------------------------------------------

// Exhaustive simulates every feasible candidate (bound-ranked truncation
// under a budget). The reference strategy for small spaces, and the quality
// yardstick the guided strategies are measured against.
type Exhaustive struct{}

// Name implements Strategy.
func (Exhaustive) Name() string { return "exhaustive" }

// Search implements Strategy.
func (Exhaustive) Search(ctx context.Context, cands []Candidate, budget int, sim Simulate) ([]Evaluated, error) {
	pool := sortByBound(cands)
	if budget > 0 && len(pool) > budget {
		pool = pool[:budget]
	}
	outs, err := sim(ctx, pool)
	if err != nil {
		return nil, err
	}
	return zip(pool, outs), nil
}

// --- Beam -------------------------------------------------------------------

// Beam promotes only the Width most promising candidates by analytic
// bound, plus up to Width/4 frontier-coverage extras no beam member
// analytically dominates on (bound, GPU count, memory) — one simulation
// batch, bounded cost regardless of space size.
type Beam struct {
	// Width is the beam size. Zero selects 8.
	Width int
}

// Name implements Strategy.
func (b Beam) Name() string { return fmt.Sprintf("beam%d", b.width()) }

func (b Beam) width() int {
	if b.Width > 0 {
		return b.Width
	}
	return 8
}

// Search implements Strategy.
func (b Beam) Search(ctx context.Context, cands []Candidate, budget int, sim Simulate) ([]Evaluated, error) {
	pool := sortByBound(cands)
	w := b.width()
	if w > len(pool) {
		w = len(pool)
	}
	if budget > 0 && w > budget {
		w = budget
	}
	batch := append([]Candidate{}, pool[:w]...)
	extra := ceilDiv(w, 4)
	if budget > 0 && extra > budget-w {
		extra = budget - w
	}
	if extra > 0 {
		picks, _ := frontierPicks(batch, pool[w:], extra)
		batch = append(batch, picks...)
	}
	outs, err := sim(ctx, batch)
	if err != nil {
		return nil, err
	}
	return zip(batch, outs), nil
}

// --- Successive halving -----------------------------------------------------

// SuccessiveHalving races bound-ranked cohorts through simulation: round r
// promotes the next 1/Eta slice of the remaining pool (plus a seeded
// exploration draw from deeper in the ranking, guarding against
// analytic-bound bias), evaluates it together with the current survivors —
// whose re-visits hit the sweep engine's scenario cache — and keeps the
// top 1/Eta by measured iteration time. Total simulations converge to
// roughly N/(Eta-1) of an exhaustive pass.
type SuccessiveHalving struct {
	// Eta is the cohort/promotion rate. Zero selects 3; values below 2
	// are clamped to 2.
	Eta int
	// Explore is the fraction of each cohort drawn uniformly (seeded) from
	// the rest of the pool instead of strictly by bound. Zero selects
	// 0.25; negative disables exploration.
	Explore float64
	// Seed drives the exploration draws. Zero selects 1.
	Seed uint64
}

// Name implements Strategy.
func (s SuccessiveHalving) Name() string { return fmt.Sprintf("halving%d", s.eta()) }

func (s SuccessiveHalving) eta() int {
	switch {
	case s.Eta <= 0:
		return 3
	case s.Eta < 2:
		return 2
	}
	return s.Eta
}

func (s SuccessiveHalving) explore() float64 {
	if s.Explore == 0 {
		return 0.25
	}
	if s.Explore < 0 {
		return 0
	}
	return s.Explore
}

// Search implements Strategy.
func (s SuccessiveHalving) Search(ctx context.Context, cands []Candidate, budget int, sim Simulate) ([]Evaluated, error) {
	remaining := sortByBound(cands)
	n := len(remaining)
	if n == 0 {
		return nil, nil
	}
	eta := s.eta()
	draw := rng.New(s.seed())

	evaluated := map[string]Evaluated{}
	var order []string // insertion order, so output is deterministic
	var survivors []Candidate
	promoted := 0

	cohort := ceilDiv(n, eta)
	for len(remaining) > 0 {
		take := cohort
		if take > len(remaining) {
			take = len(remaining)
		}
		if budget > 0 {
			if left := budget - promoted; take > left {
				take = left
			}
		}
		if take < 1 {
			break
		}
		batch, rest := s.draft(remaining, take, draw)
		// Frontier-coverage insurance: promote deeper-ranked points no
		// cohort member analytically dominates on (bound, GPU count,
		// memory), so memory-cheap schedules survive the bound-only cull.
		extra := ceilDiv(len(batch), 4)
		if budget > 0 {
			if left := budget - promoted - len(batch); extra > left {
				extra = left
			}
		}
		if extra > 0 {
			var picks []Candidate
			picks, rest = frontierPicks(batch, rest, extra)
			batch = append(batch, picks...)
		}
		remaining = rest
		promoted += len(batch)

		full := append(append([]Candidate{}, survivors...), batch...)
		outs, err := sim(ctx, full)
		if err != nil {
			return nil, err
		}
		ranked := zip(full, outs)
		for _, e := range ranked {
			k := e.Point.Key()
			if _, seen := evaluated[k]; !seen {
				order = append(order, k)
			}
			evaluated[k] = e
		}
		rankEvaluated(ranked)
		keep := ceilDiv(len(ranked), eta)
		survivors = survivors[:0]
		for _, e := range ranked {
			if e.Err == "" && len(survivors) < keep {
				survivors = append(survivors, e.Candidate)
			}
		}
		next := ceilDiv(cohort, eta)
		if next >= cohort {
			// The cohort can no longer halve: the race has converged.
			break
		}
		cohort = next
	}

	out := make([]Evaluated, 0, len(order))
	for _, k := range order {
		out = append(out, evaluated[k])
	}
	return out, nil
}

func (s SuccessiveHalving) seed() uint64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// draft selects the round's cohort — mostly the best remaining bounds,
// plus seeded exploration draws from deeper in the ranking — and returns
// it alongside the unpicked remainder, whose bound-sorted order is
// preserved for later rounds.
func (s SuccessiveHalving) draft(pool []Candidate, take int, draw *rng.Source) (batch, rest []Candidate) {
	if take > len(pool) {
		take = len(pool)
	}
	explore := int(float64(take) * s.explore())
	if explore >= take {
		explore = take - 1
	}
	exploit := take - explore
	batch = append(batch, pool[:exploit]...)
	rest = append(rest, pool[exploit:]...)
	for i := 0; i < explore && len(rest) > 0; i++ {
		j := draw.Intn(len(rest))
		batch = append(batch, rest[j])
		rest = append(rest[:j], rest[j+1:]...)
	}
	return batch, rest
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
	// Strategy selects the search. Nil picks Exhaustive for small
	// candidate sets and SuccessiveHalving beyond AutoThreshold.
	Strategy Strategy
	// Budget caps the number of unique points promoted to simulation;
	// 0 means no cap.
	Budget int
	// Mem is the memory-feasibility model (zero value: 80 GiB H100, plain
	// DDP).
	Mem memcost.Model
	// MaxInfeasible caps how many analytically rejected points are
	// retained (with reasons) in the result. Zero selects 32; the
	// rejection *counts* in Stats are always exact.
	MaxInfeasible int
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
	// order. Empty for strategies that expand the space eagerly.
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

// AutoThreshold is the feasible-candidate count up to which the nil
// strategy stays exhaustive.
const AutoThreshold = 24

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
	// simulation; SimRequests the total point-evaluations requested —
	// the difference re-visited the sweep engine's scenario cache.
	Simulated, SimRequests int
	// Rounds is the number of simulation batches the strategy ran.
	Rounds int
	// BoundPruned counts points branch-and-bound discarded because their
	// subtree's admissible lower bound exceeded the incumbent simulated
	// time; DominatedPruned the subset additionally dominated by an
	// already simulated point on every frontier objective. Both are zero
	// for strategies that expand the space eagerly. Under a budget the
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
	// fabric) and simulation failures, with reasons, capped by
	// Options.MaxInfeasible.
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

// Plan runs the guided search: expand the space lazily, pre-filter with
// the memory model and analytic bounds, let the strategy promote survivors
// to the Simulate callback, and assemble the Pareto frontier.
func Plan(ctx context.Context, base parallel.Config, space Space,
	fabric topology.Fabric, pricer func(topology.Fabric) collective.Pricer,
	sim Simulate, opts ...Option) (*Result, error) {

	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	maxInfeasible := o.MaxInfeasible
	if maxInfeasible == 0 {
		maxInfeasible = 32
	}

	bounder := NewBounder(base, fabric, pricer, o.Mem)
	stats := Stats{}
	rej := &rejections{max: maxInfeasible, stats: &stats}

	// The engine meters the strategy's use of the simulator: unique points
	// promoted, total requests (the difference hit the scenario cache),
	// batch rounds, and structure sharing and bound violations among fresh
	// points.
	seen := map[string]bool{}
	metered := func(ctx context.Context, cands []Candidate) ([]Outcome, error) {
		stats.Rounds++
		stats.SimRequests += len(cands)
		fresh := make([]bool, len(cands))
		for i, c := range cands {
			if k := c.Point.Key(); !seen[k] {
				seen[k] = true
				stats.Simulated++
				fresh[i] = true
			}
		}
		outs, err := sim(ctx, cands)
		if err == nil {
			for i, c := range cands {
				if !fresh[i] || i >= len(outs) {
					continue
				}
				if outs[i].SharedStructure {
					stats.SharedStructure++
				}
				if outs[i].Err == "" && c.Bound > outs[i].Iteration {
					stats.BoundViolations++
				}
			}
			if o.Explain != nil {
				for i, c := range cands {
					if !fresh[i] || i >= len(outs) {
						continue
					}
					rec := ExplainSim{
						Point:   c.Point.Key(),
						Round:   stats.Rounds,
						BoundMs: float64(c.Bound) / 1e6,
						Err:     outs[i].Err,
					}
					if outs[i].Err == "" {
						rec.ActualMs = float64(outs[i].Iteration) / 1e6
					}
					o.Explain.Simulated = append(o.Explain.Simulated, rec)
				}
			}
		}
		if o.Tracer != nil && err == nil {
			freshCount := 0
			for _, f := range fresh {
				if f {
					freshCount++
				}
			}
			best := trace.Dur(0)
			for _, out := range outs {
				if out.Err == "" && (best == 0 || out.Iteration < best) {
					best = out.Iteration
				}
			}
			o.Tracer.Instant("search", "simulate", map[string]any{
				"round": stats.Rounds, "batch": len(cands), "fresh": freshCount,
				"best_ms": float64(best) / 1e6,
			})
		}
		return outs, err
	}

	var evaluated []Evaluated
	var err error
	strat := o.Strategy
	if ss, ok := strat.(spaceStrategy); ok {
		// Space-aware strategies expand lazily and keep the rejection and
		// pruning tables themselves — the space is never materialized here.
		evaluated, err = ss.searchSpace(ctx, &spaceSearch{
			base: base, space: space, bounder: bounder,
			budget: o.Budget, sim: metered, stats: &stats, rej: rej,
			tracer: o.Tracer, explain: o.Explain,
		})
		if err != nil {
			return nil, err
		}
	} else {
		var feasible []Candidate
		space.ForEach(base, func(p Point) bool {
			stats.SpaceSize++
			if c, ok := bounder.screen(p, rej.room()); ok {
				feasible = append(feasible, c)
			} else {
				rej.book(c)
			}
			return true
		})
		stats.Feasible = len(feasible)

		if strat == nil {
			if len(feasible) <= AutoThreshold {
				strat = Exhaustive{}
			} else {
				strat = SuccessiveHalving{}
			}
		}
		evaluated, err = strat.Search(ctx, feasible, o.Budget, metered)
		if err != nil {
			return nil, err
		}
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
// keeps the first max of them, with their reasons, for Result.Infeasible.
// Callers screen a point with a reason only while room remains, so the
// points past the cap are counted without one.
type rejections struct {
	max   int
	kept  []Candidate
	stats *Stats
}

// room reports whether the next rejection is kept (and so needs a reason).
func (r *rejections) room() bool { return len(r.kept) < r.max }

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

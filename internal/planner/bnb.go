// Branch-and-bound: exact search that never materializes the space. The
// admissible analytic bound (see bound.go) lower-bounds every point's
// simulated iteration time, and the bound is monotone nondecreasing in the
// microbatch count (the steady-state term grows with every extra
// microbatch while the bubble, all-reduce and optimizer terms do not), so
// the space factors into subtrees — one per (PP, DP, schedule, fabric,
// degrade) coordinate, holding the microbatch axis lazily — whose cheapest
// unexplored point is always the subtree's head. A priority queue over
// subtree heads then expands best-bound-first: heads at or below the
// incumbent (the best simulated iteration time so far) are promoted in
// small batches, and the moment every remaining head exceeds the
// incumbent, all remaining subtrees are pruned wholesale without ever
// computing their points' bounds. Exactness: pruning only discards points
// whose lower bound strictly exceeds a simulated time, so every point that
// could tie or beat the final best — including key-tiebreak ties — is
// simulated, and the best point is bit-identical to Exhaustive's.
package planner

import (
	"container/heap"
	"context"
	"sort"

	"lumos/internal/schedule"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// BranchAndBound is the exact bound-first strategy: it returns the same
// best point as Exhaustive while simulating only the points whose
// admissible lower bound does not exceed the running incumbent. Only the
// best point is exact: its frontier is the non-dominated subset of the
// points it simulated, not the space's Pareto frontier.
type BranchAndBound struct{}

// Name implements Strategy.
func (BranchAndBound) Name() string { return "bnb" }

// bnbBatch is how many queue heads a round promotes before tie-batching —
// the concurrency the sweep engine's worker pool sees.
const bnbBatch = 4

// bnbNode is one (PP, DP, schedule, fabric, degrade) subtree holding the
// microbatch axis lazily. Because the bound is monotone nondecreasing in
// the microbatch count, the head candidate (cur) lower-bounds every
// untried microbatch behind it.
type bnbNode struct {
	seq     int // creation order; deterministic heap tiebreak
	pp, dp  int
	sched   string
	fabric  topology.Fabric
	degrade []float64
	mbs     []int // ascending
	i       int   // next untried index in mbs
	cur     Candidate
	ok      bool // cur holds a feasible head
}

// point is the subtree's coordinate at microbatch count mb.
func (n *bnbNode) point(tp, mb int) Point {
	return Point{TP: tp, PP: n.pp, DP: n.dp, Microbatches: mb,
		Schedule: n.sched, Fabric: n.fabric, Degrade: n.degrade}
}

// advance walks the microbatch axis to the next feasible candidate,
// booking the rejected points it steps over.
//
// An OOM point ends the walk. Peak memory never falls as microbatches
// grow (TestPeakMemoryMonotoneInMicrobatches in internal/memcost checks
// every schedule family), and the scope, schedule name and fabric are the
// subtree's own and already passed. So every untried microbatch is either
// an invalid config or OOM as well; they are booked from the config's
// validity alone, with no memory estimate or bound, and the subtree is
// exhausted. Only a point the result keeps is screened in full, for its
// reason.
func (n *bnbNode) advance(s *spaceSearch) {
	n.ok = false
	tp := s.base.Map.TP
	for n.i < len(n.mbs) {
		c, ok := s.bounder.screen(n.point(tp, n.mbs[n.i]), s.rej.room())
		n.i++
		if ok {
			n.cur, n.ok = c, true
			return
		}
		s.rej.book(c)
		if c.OOM {
			break
		}
	}
	for ; n.i < len(n.mbs); n.i++ {
		p := n.point(tp, n.mbs[n.i])
		if s.rej.room() {
			s.rej.book(s.bounder.Candidate(p))
			continue
		}
		err := p.Config(s.base).Check(false)
		s.rej.book(Candidate{Point: p, OOM: err == nil, BadSchedule: schedule.IsScheduleError(err)})
	}
}

// remaining is how many points the subtree still holds (the head plus
// every untried microbatch).
func (n *bnbNode) remaining() int { return 1 + len(n.mbs) - n.i }

// nodeHeap orders subtrees by head bound, creation order breaking ties.
type nodeHeap []*bnbNode

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].cur.Bound != h[j].cur.Bound {
		return h[i].cur.Bound < h[j].cur.Bound
	}
	return h[i].seq < h[j].seq
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*bnbNode)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// search is lazy tree expansion with best-bound-first promotion.
// Out-of-scope TP slices and unknown schedule names are rejected in bulk —
// counted analytically, one representative candidate retained — without
// expanding a single point.
func (BranchAndBound) search(ctx context.Context, s *spaceSearch) ([]Evaluated, error) {
	r := s.space.withBase(s.base)
	perSched := len(r.PP) * len(r.DP) * len(r.Microbatch) * len(r.Fabrics) * len(r.Degrade)
	perTP := perSched * len(r.Schedules)
	s.stats.SpaceSize = perTP * len(r.TP)

	// keepRepresentative retains one candidate for a slice rejected in bulk.
	keepRepresentative := func(tp int, sched string) {
		if s.rej.room() {
			s.rej.keep(s.bounder.Candidate(Point{TP: tp, PP: r.PP[0], DP: r.DP[0],
				Microbatches: r.Microbatch[0], Schedule: sched, Fabric: r.Fabrics[0], Degrade: r.Degrade[0]}))
		}
	}

	h := &nodeHeap{}
	seq := 0
	for _, tp := range r.TP {
		if tp != s.base.Map.TP {
			// The whole TP slice is outside the manipulation scope: no
			// point can ever be promoted, so the slice is booked in bulk.
			s.stats.ScopeRejected += perTP
			keepRepresentative(tp, r.Schedules[0])
			continue
		}
		for _, sched := range r.Schedules {
			if sched != "" {
				if _, err := schedule.Parse(sched); err != nil {
					// An unknown spec name is invalid at every coordinate.
					s.stats.ScheduleRejected += perSched
					keepRepresentative(tp, sched)
					continue
				}
			}
			mbs := append([]int{}, r.Microbatch...)
			sort.Ints(mbs)
			for _, pp := range r.PP {
				for _, dp := range r.DP {
					for _, f := range r.Fabrics {
						for _, deg := range r.Degrade {
							n := &bnbNode{seq: seq, pp: pp, dp: dp, sched: sched,
								fabric: f, degrade: deg, mbs: mbs}
							seq++
							n.advance(s)
							if n.ok {
								*h = append(*h, n)
							}
						}
					}
				}
			}
		}
	}
	heap.Init(h)

	var evaluated []Evaluated
	var incumbent trace.Dur
	have := false
	promoted := 0
	round := 0
	for h.Len() > 0 {
		if s.budget > 0 && promoted >= s.budget {
			// Budget exhausted mid-search: the unexplored remainder is
			// neither simulated nor provably prunable, so it stays out of
			// the partition counts (the invariant holds budget-free).
			break
		}
		var batch []Candidate
		var popped []*bnbNode
		for h.Len() > 0 {
			top := (*h)[0]
			if have && top.cur.Bound > incumbent {
				break
			}
			if s.budget > 0 && promoted+len(batch) >= s.budget {
				break
			}
			// Tie-batching: past the nominal batch size, keep taking heads
			// whose bound ties the last one taken. Equal-bound heads are
			// indistinguishable to the search order, so promoting the whole
			// tie group in one round hands the sweep worker pool a wider
			// batch; the batch composition is fixed before any simulation
			// runs, so results stay identical at any worker count.
			if len(batch) >= bnbBatch && top.cur.Bound != batch[len(batch)-1].Bound {
				break
			}
			n := heap.Pop(h).(*bnbNode)
			batch = append(batch, n.cur)
			popped = append(popped, n)
		}
		if len(batch) == 0 {
			// Every remaining head exceeds the incumbent; with the bound
			// monotone along each subtree's microbatch axis, every point
			// behind every head does too. Prune wholesale.
			subtrees, points := 0, 0
			for h.Len() > 0 {
				n := heap.Pop(h).(*bnbNode)
				subtrees++
				points += n.remaining()
				s.prune(n, evaluated, incumbent)
			}
			if s.tracer != nil {
				s.tracer.Instant("search", "prune", map[string]any{
					"round": round, "subtrees": subtrees, "points": points,
					"incumbent_ms": float64(incumbent) / 1e6,
				})
			}
			break
		}
		round++
		if s.tracer != nil {
			args := map[string]any{
				"round": round, "batch": len(batch), "heap": h.Len(),
				"head_bound_ms": float64(batch[0].Bound) / 1e6,
			}
			if have {
				args["incumbent_ms"] = float64(incumbent) / 1e6
			}
			s.tracer.Instant("search", "pop", args)
		}
		for _, n := range popped {
			n.advance(s)
			if n.ok {
				heap.Push(h, n)
			}
		}
		s.stats.Feasible += len(batch)
		promoted += len(batch)
		outs, err := s.sim(ctx, batch)
		if err != nil {
			return nil, err
		}
		es := zip(batch, outs)
		evaluated = append(evaluated, es...)
		for _, e := range es {
			if e.Err == "" && (!have || e.Iteration < incumbent) {
				incumbent, have = e.Iteration, true
			}
		}
	}
	return evaluated, nil
}

// prune books a discarded subtree: DominatedPruned when some already
// simulated point is at least as good on every objective the frontier
// ranks (time via the admissible bound, GPU count, peak memory),
// BoundPruned otherwise. incumbent is the best simulated iteration time at
// the moment of the prune, recorded into the explain report.
func (s *spaceSearch) prune(n *bnbNode, evaluated []Evaluated, incumbent trace.Dur) {
	count := n.remaining()
	dominated := false
	for _, e := range evaluated {
		if e.Err == "" && e.Iteration <= n.cur.Bound &&
			e.Point.World() <= n.cur.Point.World() && e.Mem.Total() <= n.cur.Mem.Total() {
			dominated = true
			break
		}
	}
	if dominated {
		s.stats.DominatedPruned += count
	} else {
		s.stats.BoundPruned += count
	}
	if s.explain != nil {
		s.explain.Pruned = append(s.explain.Pruned, ExplainPrune{
			Head:        n.cur.Point.Key(),
			BoundMs:     float64(n.cur.Bound) / 1e6,
			Points:      count,
			IncumbentMs: float64(incumbent) / 1e6,
			Dominated:   dominated,
		})
	}
}

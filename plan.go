// Deployment-planner façade: exact search over the joint parallelism ×
// microbatch × schedule × fabric space with a memory-feasibility model and
// multi-objective output.
//
//	tk := lumos.New(lumos.WithConcurrency(8))
//	base, _ := lumos.DeploymentConfig(lumos.GPT3_15B(), 2, 2, 2)
//	res, _ := tk.Plan(ctx, base, lumos.Space{
//		PP:         []int{1, 2, 4},
//		DP:         []int{1, 2, 4},
//		Microbatch: []int{4, 8},
//	}, lumos.WithPlanStrategy(lumos.BranchAndBoundStrategy()))
//	for _, p := range res.Frontier {
//		fmt.Println(p.Point.Key(), p.Iteration, p.Mem)
//	}
//
// The base is profiled once; the planner's memory model rules out
// configurations that would OOM before simulation time is spent, analytic
// roofline + collective-pricer bounds rank the rest, and the strategy
// promotes points to full graph simulation on the sweep engine: every
// feasible point (exhaustive), or only those whose admissible bound does
// not exceed the best simulated time (branch-and-bound). Both return the
// same best point. The result holds the non-dominated simulated points
// over (iteration time, GPU count, peak memory), with ranked dominated
// points retained.
package lumos

import (
	"fmt"
	"strings"

	"lumos/internal/memcost"
	"lumos/internal/planner"
)

// Planner types, re-exported from the engine.
type (
	// Space declares ranges over deployment knobs (TP/PP/DP, microbatch,
	// fabrics, degrade factors); empty dimensions pin the base's value.
	// The cross product expands lazily.
	Space = planner.Space
	// PlanPoint is one coordinate of a Space.
	PlanPoint = planner.Point
	// PlanCandidate is a point annotated with the analytic pre-filter's
	// verdicts (memory estimate, cost bound, infeasibility reason).
	PlanCandidate = planner.Candidate
	// PlanEvaluated is a candidate with its simulated iteration time.
	PlanEvaluated = planner.Evaluated
	// PlanResult is a completed search: Pareto frontier, ranked dominated
	// points, retained infeasible points, and search statistics.
	PlanResult = planner.Result
	// PlanStats reports how the search spent its effort.
	PlanStats = planner.Stats
	// PlanOption configures a plan run (see WithPlan*).
	PlanOption = planner.Option
	// PlanExplain, when attached via WithPlanExplain, records how the
	// search spent its effort: every simulated point (bound vs actual)
	// and every wholesale-pruned subtree (head, bound, incumbent).
	PlanExplain = planner.Explain
	// PlanExplainSim is one simulated point in a PlanExplain report.
	PlanExplainSim = planner.ExplainSim
	// PlanExplainPrune is one pruned subtree in a PlanExplain report.
	PlanExplainPrune = planner.ExplainPrune
	// PlanStrategy is one of the two exact searches: ExhaustiveStrategy or
	// BranchAndBoundStrategy.
	PlanStrategy = planner.Strategy
	// MemoryModel is the per-GPU memory-feasibility model (capacity,
	// reserve, optimizer bytes/param, ZeRO sharding stage).
	MemoryModel = memcost.Model
	// MemoryEstimate is a per-GPU memory decomposition.
	MemoryEstimate = memcost.Estimate
	// ZeROStage selects DP sharding of optimizer state and gradients.
	ZeROStage = memcost.ZeROStage
)

// ZeRO sharding stages for MemoryModel.
const (
	ZeRONone      = memcost.ZeRONone
	ZeROOptimizer = memcost.ZeROOptimizer
	ZeROGradients = memcost.ZeROGradients
)

// ExhaustiveStrategy simulates every feasible point. Its frontier is the
// space's Pareto frontier; it is the reference for small spaces and the
// yardstick branch-and-bound is checked against.
func ExhaustiveStrategy() PlanStrategy { return planner.Exhaustive{} }

// BranchAndBoundStrategy is exact search at a fraction of the simulations:
// lazy subspace expansion with admissible analytic lower bounds, a
// bound-ranked priority queue, and wholesale pruning of subtrees that
// cannot beat the incumbent. Returns the same best point as
// ExhaustiveStrategy. Only that best point is exact: the result's Frontier
// is the non-dominated subset of the points bnb simulated, and pruning on
// iteration time alone can drop a slower point that uses fewer GPUs or
// less memory from it.
func BranchAndBoundStrategy() PlanStrategy { return planner.BranchAndBound{} }

// PlanStrategyByName resolves a strategy menu entry, as the CLI's -strategy
// flag and lumosd's "strategy" field spell it: "" and "auto" return nil
// (the default rule, see WithPlanStrategy), "exhaustive" and "bnb" their
// strategies. Case and surrounding spaces are ignored; any other name is
// an error that lists the menu.
func PlanStrategyByName(name string) (PlanStrategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "auto":
		return nil, nil
	case "exhaustive":
		return ExhaustiveStrategy(), nil
	case "bnb":
		return BranchAndBoundStrategy(), nil
	}
	return nil, fmt.Errorf("unknown strategy %q (want auto|exhaustive|bnb)", name)
}

// WithPlanStrategy selects the search strategy. Nil (the default) searches
// spaces of at most 24 points exhaustively and larger ones by
// branch-and-bound, deciding from Space.Size before any point is screened.
func WithPlanStrategy(s PlanStrategy) PlanOption { return planner.WithStrategy(s) }

// WithPlanBudget caps the number of unique points promoted to full graph
// simulation.
func WithPlanBudget(n int) PlanOption { return planner.WithBudget(n) }

// WithMemoryModel overrides the memory-feasibility model (device capacity,
// reserve, ZeRO stage, attention accounting).
func WithMemoryModel(m MemoryModel) PlanOption { return planner.WithMemModel(m) }

// WithPlanExplain attaches a report that the search fills in as it runs:
// one entry per simulated point (analytic bound vs simulated iteration)
// and one per wholesale-pruned subtree. The report's totals equal the
// run's PlanStats — len(Simulated) == Stats.Simulated and PrunedPoints()
// == Stats.BoundPruned + Stats.DominatedPruned.
func WithPlanExplain(e *PlanExplain) PlanOption { return planner.WithExplain(e) }

// DefaultMemoryModel returns the H100-class defaults (80 GiB, 6 GiB
// reserve, Adam at 12 B/param, no ZeRO sharding, flash attention).
func DefaultMemoryModel() MemoryModel { return memcost.DefaultModel() }

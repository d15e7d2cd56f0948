// Deployment-planner façade: guided search over the joint parallelism ×
// microbatch × fabric space with a memory-feasibility model and
// multi-objective output.
//
//	tk := lumos.New(lumos.WithConcurrency(8))
//	base, _ := lumos.DeploymentConfig(lumos.GPT3_15B(), 2, 2, 2)
//	res, _ := tk.Plan(ctx, base, lumos.Space{
//		PP:         []int{1, 2, 4},
//		DP:         []int{1, 2, 4},
//		Microbatch: []int{4, 8},
//	}, lumos.WithPlanStrategy(lumos.HalvingStrategy(3)))
//	for _, p := range res.Frontier {
//		fmt.Println(p.Point.Key(), p.Iteration, p.Mem)
//	}
//
// The base is profiled once; the planner's memory model rules out
// configurations that would OOM before simulation time is spent, analytic
// roofline + collective-pricer bounds rank the rest, and the strategy
// promotes only the promising points to full graph simulation on the sweep
// engine. The result is the Pareto frontier over (iteration time, GPU
// count, peak memory), with ranked dominated points retained.
package lumos

import (
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
	// PlanStrategy decides which candidates are promoted to simulation.
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

// ExhaustiveStrategy simulates every feasible point — the reference for
// small spaces and the yardstick the guided strategies are measured
// against.
func ExhaustiveStrategy() PlanStrategy { return planner.Exhaustive{} }

// BeamStrategy promotes only the width best points by analytic bound.
// width <= 0 selects 8.
func BeamStrategy(width int) PlanStrategy { return planner.Beam{Width: width} }

// HalvingStrategy races bound-ranked cohorts through simulation with
// promotion rate eta (successive halving); survivors re-visit the scenario
// cache. eta <= 0 selects 3.
func HalvingStrategy(eta int) PlanStrategy { return planner.SuccessiveHalving{Eta: eta} }

// BranchAndBoundStrategy is exact search at guided-search cost: lazy
// subspace expansion with admissible analytic lower bounds, a bound-ranked
// priority queue, and wholesale pruning of subtrees that cannot beat the
// incumbent. Returns the same best point as ExhaustiveStrategy while
// simulating strictly fewer points. Only that best point is exact: the
// result's Frontier is the non-dominated subset of the points bnb
// simulated, and pruning on iteration time alone can drop a slower point
// that uses fewer GPUs or less memory from it. batch sets how many
// bound-minimal heads are simulated per round; batch <= 0 selects the
// default.
func BranchAndBoundStrategy(batch int) PlanStrategy { return planner.BranchAndBound{Batch: batch} }

// WithPlanStrategy selects the search strategy. The default is exhaustive
// for small candidate sets and successive halving beyond.
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

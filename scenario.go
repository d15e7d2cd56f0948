// Scenario/Sweep façade: composable what-if campaigns over one profile.
package lumos

import (
	"lumos/internal/core"
)

// Scenario types, re-exported from the engine.
type (
	// Scenario is one point in a what-if campaign. Implementations must be
	// safe for concurrent use and must not mutate the BaseState.
	Scenario = core.Scenario
	// ScenarioResult is the structured outcome of one evaluated scenario:
	// predicted iteration time, breakdown, speedup vs base, cost delta.
	ScenarioResult = core.ScenarioResult
	// SweepResult is a completed campaign, ranked fastest-first.
	SweepResult = core.SweepResult
	// BaseState is the shared profile-once state scenarios evaluate
	// against (graph, replayed baseline, kernel library, fitted model).
	BaseState = core.BaseState
)

// BaselineScenario ranks the base deployment alongside its alternatives.
func BaselineScenario() Scenario { return core.BaselineScenario() }

// ScaleDPScenario scales data parallelism to dp (Section 3.4).
func ScaleDPScenario(dp int) Scenario { return core.ScaleDPScenario(dp) }

// ScalePPScenario re-stages the pipeline to pp stages (Section 3.4).
func ScalePPScenario(pp int) Scenario { return core.ScalePPScenario(pp) }

// Scale3DScenario changes PP and DP simultaneously (Section 3.4).
func Scale3DScenario(pp, dp int) Scenario { return core.Scale3DScenario(pp, dp) }

// ArchScenario replaces the architecture while keeping the deployment.
func ArchScenario(arch Arch) Scenario { return core.ArchScenario(arch) }

// DeploymentScenario targets an explicit architecture and TP×PP×DP mapping.
// TP changes from the sweep's base are reported as infeasible, matching the
// paper's manipulation scope.
func DeploymentScenario(arch Arch, tp, pp, dp int) Scenario {
	return core.DeploymentScenario(arch, tp, pp, dp)
}

// DeployScenario wraps a config transform as a scenario; the target is
// derived from the sweep's base at evaluation time.
func DeployScenario(name string, transform func(Config) Config) Scenario {
	return core.DeployScenario(name, transform)
}

// KernelScaleScenario estimates the makespan if kernels matched by the
// predicate ran at the given duration factor (Section 5's what-if analysis).
func KernelScaleScenario(name string, match func(*Task) bool, factor float64) Scenario {
	return core.KernelScaleScenario(name, match, factor)
}

// ClassScaleScenario is KernelScaleScenario for one kernel class.
func ClassScaleScenario(class KernelClass, factor float64) Scenario {
	return core.ClassScaleScenario(class, factor)
}

// FusionScenario estimates the operator-fusion counterfactual (the "new
// operator fusion pattern" scenario from Section 3.4).
func FusionScenario() Scenario { return core.FusionScenario() }

// FabricScenario predicts the base deployment's iteration time on a
// different interconnect — "what if this job ran on NVL72 racks?" — by
// re-pricing communication for the target fabric while keeping measured
// compute durations. An empty name defaults to the fabric's preset name.
func FabricScenario(name string, f Fabric) Scenario { return core.FabricScenario(name, f) }

// DegradeLinksScenario predicts the base deployment under degraded links:
// per-tier bandwidth scaled by the given factors on the campaign's own
// fabric (the last factor extends outward; 1.0 is the identity).
func DegradeLinksScenario(factors ...float64) Scenario {
	return core.DegradeLinksScenario(factors...)
}

// GridSweep enumerates a deployment scenario for every TP×PP×DP combination
// of the given ranges under the given architecture — the paper's
// exploration loop ("which deployment should I rent?") as one campaign.
// Points whose tensor parallelism differs from the sweep's base are
// evaluated as infeasible rather than failing the campaign, so grids may
// span TP values freely.
func GridSweep(arch Arch, tpRange, ppRange, dpRange []int) []Scenario {
	var scenarios []Scenario
	for _, tp := range tpRange {
		for _, pp := range ppRange {
			for _, dp := range dpRange {
				scenarios = append(scenarios, DeploymentScenario(arch, tp, pp, dp))
			}
		}
	}
	return scenarios
}

// FabricSweep enumerates a fabric × degradation grid as scenarios — the
// network analogue of GridSweep ("which interconnect should I rent, and how
// much headroom does it have?"). Every fabric (nil = the campaign's bound
// fabric) is evaluated at every network bandwidth factor, scaling the tiers
// beyond the innermost domain (NVLink stays nominal); factor 1 is
// undegraded. The result composes with GridSweep points in one campaign.
func FabricSweep(fabrics []Fabric, degrade []float64) []Scenario {
	return core.FabricSweep(fabrics, degrade)
}

// NetworkDegradeFactors maps one network bandwidth factor to the per-tier
// degrade vector the sweep and plan surfaces share: tiers beyond the
// innermost domain are scaled, NVLink stays nominal, and factor 1 is the
// undegraded fabric (nil).
func NetworkDegradeFactors(factor float64) []float64 {
	return core.NetworkDegradeFactors(factor)
}

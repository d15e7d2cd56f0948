package analysis

import (
	"lumos/internal/execgraph"
	"lumos/internal/replay"
	"lumos/internal/trace"
)

// FusionOpts tunes the operator-fusion what-if (Section 3.4's motivating
// example: estimating a fusion pattern's benefit before implementing it).
type FusionOpts struct {
	// Classes lists the kernel families eligible for fusion; consecutive
	// eligible kernels on the same stream merge into one.
	Classes []trace.KernelClass
	// KernelOverhead is the per-kernel fixed cost (launch latency, tail
	// effects) recovered by each merged kernel.
	KernelOverhead trace.Dur
	// MemorySavings is the fraction of the merged kernels' combined time
	// saved by eliminating intermediate tensor round trips (fused
	// elementwise chains skip global-memory materialization).
	MemorySavings float64
}

// DefaultFusionOpts matches a fused elementwise/norm epilogue pattern.
func DefaultFusionOpts() FusionOpts {
	return FusionOpts{
		Classes:        []trace.KernelClass{trace.KCElementwise, trace.KCNorm, trace.KCSoftmax},
		KernelOverhead: 2_500,
		MemorySavings:  0.25,
	}
}

// FusionReport summarizes a fusion what-if.
type FusionReport struct {
	// FusedGroups counts the kernel runs that merged.
	FusedGroups int
	// KernelsRemoved is the reduction in kernel count.
	KernelsRemoved int
	// Baseline and Fused are the simulated iteration times before and
	// after fusion.
	Baseline, Fused trace.Dur
}

// Speedup returns baseline/fused.
func (r FusionReport) Speedup() float64 {
	if r.Fused == 0 {
		return 0
	}
	return float64(r.Baseline) / float64(r.Fused)
}

// ApplyFusion rewrites a duration view with the fusion counterfactual:
// merged runs keep their first kernel, whose duration becomes the run's
// total minus the recovered overheads and memory savings; the rest become
// zero-duration. Durations are read through the view, so fusion composes
// with overrides already applied (e.g. a kernel-scale retiming). The
// underlying graph is never mutated.
func ApplyFusion(v *execgraph.Retimed, opts FusionOpts) (fusedGroups, kernelsRemoved int) {
	g := v.Graph
	eligible := map[trace.KernelClass]bool{}
	for _, c := range opts.Classes {
		eligible[c] = true
	}

	// Kernels per GPU processor in queue (recorded start) order; the build
	// order of tasks within a stream already satisfies this.
	byProc := make([][]int32, len(g.Procs))
	for i := range g.Tasks {
		t := &g.Tasks[i]
		if t.Kind == execgraph.TaskGPU {
			byProc[t.Proc] = append(byProc[t.Proc], int32(i))
		}
	}
	for _, kerns := range byProc {
		i := 0
		for i < len(kerns) {
			if !eligible[g.Tasks[kerns[i]].Class] {
				i++
				continue
			}
			j := i + 1
			for j < len(kerns) && eligible[g.Tasks[kerns[j]].Class] {
				j++
			}
			if run := j - i; run > 1 {
				var total trace.Dur
				for k := i; k < j; k++ {
					total += v.Dur(kerns[k])
				}
				saved := trace.Dur(float64(total)*opts.MemorySavings) +
					trace.Dur(run-1)*opts.KernelOverhead
				if saved > total {
					saved = total
				}
				v.SetDur(kerns[i], total-saved)
				for k := i + 1; k < j; k++ {
					v.SetDur(kerns[k], 0)
				}
				fusedGroups++
				kernelsRemoved += run - 1
			}
			i = j
		}
	}
	return fusedGroups, kernelsRemoved
}

// WhatIfFusionSim estimates the end-to-end effect of fusing consecutive
// eligible kernels, replaying a retimed view of the graph on the given
// engine (a pooled compiled engine, or the reference Simulator in tests).
// baseline is the unfused iteration time (typically already known from the
// campaign's base replay, so it is not recomputed here).
func WhatIfFusionSim(sim replay.Engine, g *execgraph.Graph, opts FusionOpts, baseline trace.Dur) (FusionReport, error) {
	rep := FusionReport{Baseline: baseline}
	v := execgraph.NewRetimed(g)
	rep.FusedGroups, rep.KernelsRemoved = ApplyFusion(v, opts)
	res, err := sim.RunRetimed(v)
	if err != nil {
		return rep, err
	}
	rep.Fused = res.Makespan
	return rep, nil
}

// WhatIfFusion is the one-shot form: it replays the baseline itself on a
// fresh compiled engine, then the fused counterfactual.
func WhatIfFusion(g *execgraph.Graph, opts FusionOpts) (FusionReport, error) {
	sim := replay.NewCompiled(replay.DefaultOptions())
	base, err := sim.Run(g)
	if err != nil {
		return FusionReport{}, err
	}
	return WhatIfFusionSim(sim, g, opts, base.Makespan)
}

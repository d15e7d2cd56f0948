// Package analysis derives the paper's evaluation metrics from traces
// (collected or simulated): the execution-time breakdown into exposed
// compute / overlapped / exposed communication / other (Figures 1, 5, 7,
// 8), windowed SM utilization (Figure 6), critical-path extraction, and
// what-if kernel-scaling estimates discussed in Section 5.
package analysis

import (
	"fmt"

	"lumos/internal/execgraph"
	"lumos/internal/timeline"
	"lumos/internal/trace"
)

// Breakdown is one iteration's execution-time decomposition, all values in
// nanoseconds. Total = ExposedCompute + ExposedComm + Overlapped + Other.
type Breakdown struct {
	ExposedCompute trace.Dur
	Overlapped     trace.Dur
	ExposedComm    trace.Dur
	Other          trace.Dur
	Total          trace.Dur
}

// Millis formats a duration in milliseconds for reports.
func Millis(d trace.Dur) float64 { return float64(d) / 1e6 }

// String renders the breakdown the way the paper's bar labels do.
func (b Breakdown) String() string {
	return fmt.Sprintf("compute=%.0fms overlap=%.0fms comm=%.0fms other=%.0fms total=%.0fms",
		Millis(b.ExposedCompute), Millis(b.Overlapped), Millis(b.ExposedComm), Millis(b.Other), Millis(b.Total))
}

// rankSets builds the compute and communication busy-interval sets of one
// rank's GPU timeline.
func rankSets(t *trace.Trace) (compute, comm *timeline.Set) {
	compute = &timeline.Set{}
	comm = &timeline.Set{}
	for i := range t.Events {
		e := &t.Events[i]
		if !e.IsGPU() {
			continue
		}
		if e.IsComm() {
			comm.AddFast(e.Ts, e.End())
		} else {
			compute.AddFast(e.Ts, e.End())
		}
	}
	compute.Normalize()
	comm.Normalize()
	return compute, comm
}

// breakdownFromSets decomposes one rank's iteration span from its compute
// and communication busy-interval sets.
func breakdownFromSets(compute, comm *timeline.Set, span trace.Dur) Breakdown {
	overlap := timeline.Intersect(compute, comm)
	busy := timeline.Union(compute, comm)
	b := Breakdown{
		ExposedCompute: compute.Total() - overlap.Total(),
		Overlapped:     overlap.Total(),
		ExposedComm:    comm.Total() - overlap.Total(),
		Total:          span,
	}
	b.Other = b.Total - busy.Total()
	if b.Other < 0 {
		b.Other = 0
	}
	return b
}

// averageBreakdowns divides an accumulated sum over n ranks, keeping the
// partition identity exact under integer averaging by making Other the
// residual.
func averageBreakdowns(sum Breakdown, n int) Breakdown {
	if n == 0 {
		return Breakdown{}
	}
	sum.ExposedCompute /= trace.Dur(n)
	sum.Overlapped /= trace.Dur(n)
	sum.ExposedComm /= trace.Dur(n)
	sum.Total /= trace.Dur(n)
	sum.Other = sum.Total - sum.ExposedCompute - sum.Overlapped - sum.ExposedComm
	if sum.Other < 0 {
		sum.Other = 0
		sum.Total = sum.ExposedCompute + sum.Overlapped + sum.ExposedComm
	}
	return sum
}

// addBreakdown accumulates a per-rank breakdown into a running sum.
func addBreakdown(sum *Breakdown, b Breakdown) {
	sum.ExposedCompute += b.ExposedCompute
	sum.Overlapped += b.Overlapped
	sum.ExposedComm += b.ExposedComm
	sum.Other += b.Other
	sum.Total += b.Total
}

// RankBreakdown decomposes one rank's iteration. The iteration span is the
// union extent of all GPU and CPU activity on the rank.
func RankBreakdown(t *trace.Trace) Breakdown {
	start, end, ok := t.Span()
	if !ok {
		return Breakdown{}
	}
	compute, comm := rankSets(t)
	return breakdownFromSets(compute, comm, end-start)
}

// MultiBreakdown averages the per-rank breakdowns of a distributed trace,
// which is how the paper reports per-iteration bars (each rank experiences
// the same iteration wall time but different exposure mixes).
func MultiBreakdown(m *trace.Multi) Breakdown {
	var sum Breakdown
	n := 0
	for _, t := range m.Ranks {
		if len(t.Events) == 0 {
			continue
		}
		addBreakdown(&sum, RankBreakdown(t))
		n++
	}
	return averageBreakdowns(sum, n)
}

// IterationTime returns the distributed iteration time: the maximum
// per-rank span (the slowest rank bounds the step).
func IterationTime(m *trace.Multi) trace.Dur { return m.Duration() }

// ReplayBreakdown is MultiBreakdown computed straight from a replay's
// Start/End columns (indexed by task ID, as in replay.Result), so a replayed
// execution decomposes without materializing its trace. For the same task
// spans it returns exactly MultiBreakdown's numbers over replay.ToTrace:
// the same intervals feed the same interval algebra. Nil columns select
// the graph's recorded times (GraphBreakdown).
func ReplayBreakdown(g *execgraph.Graph, start, end []trace.Time) Breakdown {
	type rankAcc struct {
		compute, comm timeline.Set
		start, end    trace.Time
		seen          bool
	}
	accs := make([]rankAcc, g.NumRanks)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		a := &accs[t.Rank]
		s, e := t.Start, t.End()
		if start != nil {
			s, e = start[i], end[i]
		}
		if !a.seen {
			a.start, a.end, a.seen = s, e, true
		} else {
			if s < a.start {
				a.start = s
			}
			if e > a.end {
				a.end = e
			}
		}
		if t.Kind != execgraph.TaskGPU {
			continue
		}
		if t.IsComm() {
			a.comm.AddFast(s, e)
		} else {
			a.compute.AddFast(s, e)
		}
	}

	var sum Breakdown
	n := 0
	for r := range accs {
		a := &accs[r]
		if !a.seen {
			continue
		}
		a.compute.Normalize()
		a.comm.Normalize()
		addBreakdown(&sum, breakdownFromSets(&a.compute, &a.comm, a.end-a.start))
		n++
	}
	return averageBreakdowns(sum, n)
}

// GraphBreakdown is ReplayBreakdown applied to the graph's recorded times,
// so synthesized graphs (trace-free predictions) decompose without
// materializing a trace.
func GraphBreakdown(g *execgraph.Graph) Breakdown { return ReplayBreakdown(g, nil, nil) }

// SMUtilization computes the fraction of each window during which at least
// one CUDA stream of the rank is executing a kernel (the paper's Figure 6
// definition, with 1 ms windows).
func SMUtilization(t *trace.Trace, window trace.Dur) []float64 {
	start, end, ok := t.Span()
	if !ok || window <= 0 {
		return nil
	}
	busy := &timeline.Set{}
	for i := range t.Events {
		e := &t.Events[i]
		if e.IsGPU() {
			busy.AddFast(e.Ts, e.End())
		}
	}
	busy.Normalize()
	return busy.Occupancy(start, end, window)
}

// EffectiveSMUtilization is SMUtilization with communication kernels
// clipped to their intrinsic window: an NCCL kernel that spends most of its
// recorded span spin-waiting for peers keeps only [end − intrinsic, end],
// where intrinsic is the group's minimum recorded duration across ranks.
// Spinning polls with a handful of warps and does not meaningfully occupy
// SMs, so this matches what utilization counters report on real devices.
func EffectiveSMUtilization(m *trace.Multi, rank int, window trace.Dur) []float64 {
	if rank < 0 || rank >= len(m.Ranks) {
		return nil
	}
	// Intrinsic duration per collective instance.
	type gk struct{ id, seq int64 }
	minDur := map[gk]trace.Dur{}
	for _, t := range m.Ranks {
		for i := range t.Events {
			e := &t.Events[i]
			if !e.IsComm() {
				continue
			}
			k := gk{e.CommID, e.CommSeq}
			if d, ok := minDur[k]; !ok || e.Dur < d {
				minDur[k] = e.Dur
			}
		}
	}
	t := m.Ranks[rank]
	start, end, ok := t.Span()
	if !ok || window <= 0 {
		return nil
	}
	busy := &timeline.Set{}
	for i := range t.Events {
		e := &t.Events[i]
		if !e.IsGPU() {
			continue
		}
		s, en := e.Ts, e.End()
		if e.IsComm() {
			if d, ok := minDur[gk{e.CommID, e.CommSeq}]; ok && en-d > s {
				s = en - d
			}
		}
		busy.AddFast(s, en)
	}
	busy.Normalize()
	return busy.Occupancy(start, end, window)
}

// CommVolume sums communication payload bytes per collective kind on one
// rank, for workload characterization reports.
func CommVolume(t *trace.Trace) map[trace.CommKind]int64 {
	out := map[trace.CommKind]int64{}
	for i := range t.Events {
		e := &t.Events[i]
		if e.IsComm() {
			out[e.Comm] += e.CommBytes
		}
	}
	return out
}

// KernelClassTime sums busy time per kernel class on one rank.
func KernelClassTime(t *trace.Trace) map[trace.KernelClass]trace.Dur {
	out := map[trace.KernelClass]trace.Dur{}
	for i := range t.Events {
		e := &t.Events[i]
		if e.IsGPU() {
			out[e.Class] += e.Dur
		}
	}
	return out
}

package execgraph

import (
	"lumos/internal/trace"
)

// Retimed is a copy-on-write duration view over a Graph: what-if analyses
// override task (and collective-group) durations without cloning Tasks. The
// view shares the graph's durations until the first override, at which point
// only the duration columns are copied — the task array, edges, groups and
// processors are never duplicated.
//
// Overrides compose: building a view, scaling one kernel class, then
// applying a fusion rewrite yields a single view carrying both retimings,
// replayable in one pass. A Retimed must not be shared across goroutines
// while overrides are being applied.
type Retimed struct {
	// Graph is the underlying (immutable) execution graph.
	Graph *Graph

	// dur / groupDur are the override columns, nil until the first write.
	dur      []trace.Dur
	groupDur []trace.Dur
}

// NewRetimed returns a view over g with no overrides.
func NewRetimed(g *Graph) *Retimed { return &Retimed{Graph: g} }

// Bind resets the view onto a (possibly different) graph, dropping all
// overrides while keeping the override columns' capacity for reuse.
func (v *Retimed) Bind(g *Graph) {
	v.Graph = g
	v.dur = v.dur[:0]
	v.groupDur = v.groupDur[:0]
}

// Overridden reports whether any duration override has been applied.
func (v *Retimed) Overridden() bool { return len(v.dur) > 0 }

// Dur returns the effective duration of a task. Tasks appended to the
// graph after the view materialized read through to the graph.
func (v *Retimed) Dur(id int32) trace.Dur {
	if int(id) < len(v.dur) {
		return v.dur[id]
	}
	return v.Graph.Tasks[id].Dur
}

// GroupDur returns the effective intrinsic collective duration of a task.
// Tasks appended after materialization read through to the graph.
func (v *Retimed) GroupDur(id int32) trace.Dur {
	if int(id) < len(v.groupDur) {
		return v.groupDur[id]
	}
	return v.Graph.Tasks[id].GroupDur
}

// materialize copies the graph's duration columns on first write, and
// extends them (preserving existing overrides) if the graph has grown
// since.
func (v *Retimed) materialize() {
	n := len(v.Graph.Tasks)
	have := len(v.dur)
	if have == n {
		return
	}
	if cap(v.dur) < n {
		dur := make([]trace.Dur, n)
		groupDur := make([]trace.Dur, n)
		copy(dur, v.dur)
		copy(groupDur, v.groupDur)
		v.dur, v.groupDur = dur, groupDur
	} else {
		v.dur = v.dur[:n]
		v.groupDur = v.groupDur[:n]
	}
	for i := have; i < n; i++ {
		t := &v.Graph.Tasks[i]
		v.dur[i] = t.Dur
		v.groupDur[i] = t.GroupDur
	}
}

// Columns lowers the view to flat duration columns covering every task of
// the current graph: (nil, nil) when nothing is overridden, otherwise the
// materialized per-task duration and group-duration arrays. The compiled
// replay engine indexes these directly instead of calling the wrapper's
// Dur/GroupDur per task. The returned slices are view-owned: valid until
// the next override or Bind, and not to be modified by callers.
func (v *Retimed) Columns() (dur, groupDur []trace.Dur) {
	if !v.Overridden() {
		return nil, nil
	}
	v.materialize()
	return v.dur, v.groupDur
}

// SetDur overrides a task's duration.
func (v *Retimed) SetDur(id int32, d trace.Dur) {
	v.materialize()
	v.dur[id] = d
}

// SetGroupDur overrides a task's intrinsic collective duration.
func (v *Retimed) SetGroupDur(id int32, d trace.Dur) {
	v.materialize()
	v.groupDur[id] = d
}

// Scale multiplies the duration (and group duration, for collectives) of
// every GPU task matched by the predicate; it returns the match count.
func (v *Retimed) Scale(match func(*Task) bool, factor float64) int {
	n := 0
	for i := range v.Graph.Tasks {
		t := &v.Graph.Tasks[i]
		if t.Kind != TaskGPU || !match(t) {
			continue
		}
		v.SetDur(t.ID, trace.Dur(float64(v.Dur(t.ID))*factor))
		if gd := v.GroupDur(t.ID); gd > 0 {
			v.SetGroupDur(t.ID, trace.Dur(float64(gd)*factor))
		}
		n++
	}
	return n
}

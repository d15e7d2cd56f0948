package analysis

import (
	"lumos/internal/execgraph"
	"lumos/internal/replay"
	"lumos/internal/trace"
)

// ScaleDurations multiplies the duration (and the group duration, where
// positive) of every GPU task matched by the predicate, in place in t's
// columns, and returns the match count. The columns must cover every task
// of g; they usually come seeded with the recorded durations, and scales
// compose with any rewrite already applied (a prior scale, fusion).
func ScaleDurations(g *execgraph.Graph, t replay.Timings, match func(*execgraph.Task) bool, factor float64) int {
	n := 0
	for i := range g.Tasks {
		tk := &g.Tasks[i]
		if tk.Kind != execgraph.TaskGPU || !match(tk) {
			continue
		}
		t.Dur[i] = trace.Dur(float64(t.Dur[i]) * factor)
		if gd := t.GroupDur[i]; gd > 0 {
			t.GroupDur[i] = trace.Dur(float64(gd) * factor)
		}
		n++
	}
	return n
}

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

// WhatIfScale estimates the makespan if every kernel matched by the
// predicate ran at the given duration factor (e.g. "all GEMMs 2x faster"
// → factor 0.5), answering the what-if questions from the paper's
// discussion section. It compiles g and replays it once under scaled
// columns; the graph is never mutated.
func WhatIfScale(g *execgraph.Graph, match func(*execgraph.Task) bool, factor float64) (trace.Dur, error) {
	t := replay.NewTimings(g)
	ScaleDurations(g, t, match, factor)
	res, err := replay.Compile(g, replay.DefaultOptions()).Run(t, replay.NewScratch())
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

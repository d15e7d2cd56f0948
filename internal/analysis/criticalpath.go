package analysis

import (
	"sort"

	"lumos/internal/execgraph"
	"lumos/internal/replay"
	"lumos/internal/trace"
)

// PathEntry is one task on the critical path.
type PathEntry struct {
	Task  int32
	Name  string
	Rank  int32
	Class trace.KernelClass
	Dur   trace.Dur
}

// CriticalPath extracts the longest chain of tasks through the replayed
// schedule: starting from the task that finishes last, it repeatedly steps
// to the predecessor (dependency or same-processor neighbor) whose end
// equals the current task's start. This is the diagnosis primitive the
// related DLRM work (Lin et al. 2022) builds on, applied to Lumos graphs.
func CriticalPath(g *execgraph.Graph, res *replay.Result) []PathEntry {
	n := len(g.Tasks)
	if n == 0 {
		return nil
	}
	// Build reverse adjacency lazily: pred lists.
	preds := make([][]int32, n)
	for i := range g.Tasks {
		for _, o := range g.Tasks[i].Out {
			preds[o] = append(preds[o], int32(i))
		}
	}
	// Same-processor predecessor: tasks sorted by start per proc.
	byProc := make([][]int32, len(g.Procs))
	for i := range g.Tasks {
		byProc[g.Tasks[i].Proc] = append(byProc[g.Tasks[i].Proc], int32(i))
	}
	for p := range byProc {
		ids := byProc[p]
		sort.Slice(ids, func(a, b int) bool { return res.Start[ids[a]] < res.Start[ids[b]] })
	}
	procPrev := make([]int32, n)
	for p := range byProc {
		ids := byProc[p]
		for i, id := range ids {
			if i == 0 {
				procPrev[id] = -1
			} else {
				procPrev[id] = ids[i-1]
			}
		}
	}

	// Start from the last-finishing task.
	var cur int32
	for i := 1; i < n; i++ {
		if res.End[i] > res.End[cur] {
			cur = int32(i)
		}
	}

	var path []PathEntry
	for steps := 0; steps < n; steps++ {
		t := &g.Tasks[cur]
		path = append(path, PathEntry{
			Task: cur, Name: t.Name, Rank: t.Rank, Class: t.Class,
			Dur: res.End[cur] - res.Start[cur],
		})
		// Find the predecessor that gates cur's start.
		next := int32(-1)
		for _, p := range preds[cur] {
			if res.End[p] == res.Start[cur] {
				next = p
				break
			}
		}
		if next < 0 {
			if pp := procPrev[cur]; pp >= 0 && res.End[pp] == res.Start[cur] {
				next = pp
			}
		}
		if next < 0 {
			// The task started when its inputs were ready with slack, or it
			// is a source: the chain ends here.
			break
		}
		cur = next
	}
	// Reverse into execution order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path
}

// WhatIfScaleSim estimates the effect of scaling the duration of every
// kernel matched by the predicate (e.g. "all GEMMs 2x faster" → factor
// 0.5), answering the what-if questions from the paper's discussion
// section. The retiming is a copy-on-write view — only the duration
// columns are copied, never the task array — replayed on the given
// engine (a pooled compiled engine, or the reference Simulator in tests).
func WhatIfScaleSim(sim replay.Engine, g *execgraph.Graph, match func(*execgraph.Task) bool, factor float64) (trace.Dur, error) {
	v := execgraph.NewRetimed(g)
	v.Scale(match, factor)
	res, err := sim.RunRetimed(v)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// WhatIfScale is WhatIfScaleSim on a fresh compiled engine.
func WhatIfScale(g *execgraph.Graph, match func(*execgraph.Task) bool, factor float64) (trace.Dur, error) {
	return WhatIfScaleSim(replay.NewCompiled(replay.DefaultOptions()), g, match, factor)
}

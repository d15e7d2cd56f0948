package execgraph

import (
	"sort"

	"lumos/internal/trace"
)

// InterStreamMode selects which event-based GPU→GPU inter-stream
// dependencies the graph keeps.
type InterStreamMode uint8

const (
	// InterStreamAll keeps every cudaEventRecord/cudaStreamWaitEvent pair —
	// Lumos's full reconstruction.
	InterStreamAll InterStreamMode = iota
	// InterStreamComputeToComm keeps only edges whose dependent kernel is a
	// communication kernel. This models dPRO-class tools: they know a
	// collective consumes a tensor some compute op produced (framework-level
	// dataflow), but not that later compute waits on the collective through
	// stream events — so they over-estimate overlap.
	InterStreamComputeToComm
	// InterStreamNone drops all inter-stream dependencies.
	InterStreamNone
)

// gapThreshold is the minimum intra-thread execution gap that triggers
// the inter-thread dependency heuristic (paper Section 3.3.2).
const gapThreshold = 2 * trace.Microsecond

// BuildOptions tunes graph construction. Collective kernels are always
// coupled across ranks into groups (Graph.Groups).
type BuildOptions struct {
	// InterStream selects which event-based inter-stream dependencies are
	// reconstructed.
	InterStream InterStreamMode
	// InterThreadDeps enables the CPU gap heuristic.
	InterThreadDeps bool
}

// DefaultOptions returns Lumos's construction settings.
func DefaultOptions() BuildOptions {
	return BuildOptions{
		InterStream:     InterStreamAll,
		InterThreadDeps: true,
	}
}

// cpuTaskRef pairs a CPU task with its source event during construction.
type cpuTaskRef struct {
	id int32
	ev *trace.Event
}

// kernRef pairs a GPU task with its source event and CPU launch time.
type kernRef struct {
	id       int32
	ev       *trace.Event
	launchAt trace.Time
}

// Build constructs the execution graph from per-rank traces. Rank-indexed
// state is sized by the highest rank number present, not the trace count,
// so a set with gaps in its rank numbering (e.g. one rank's trace lost)
// still builds and replays.
func Build(m *trace.Multi, opts BuildOptions) (*Graph, error) {
	numRanks := 0
	for _, t := range m.Ranks {
		if t.Rank+1 > numRanks {
			numRanks = t.Rank + 1
		}
	}
	g := NewGraph(numRanks)
	g.Tasks = make([]Task, 0, m.Events())
	for _, t := range m.Ranks {
		if err := buildRank(g, t, opts); err != nil {
			return nil, err
		}
	}
	g.FinalizeGroups()
	return g, nil
}

// buildRank adds one rank's tasks and intra-rank dependencies.
func buildRank(g *Graph, tr *trace.Trace, opts BuildOptions) error {
	rank := tr.Rank

	// Partition events by thread (CPU) and stream (GPU).
	threadEvs := map[int][]*trace.Event{}
	streamEvs := map[int][]*trace.Event{}
	for i := range tr.Events {
		e := &tr.Events[i]
		switch {
		case e.Cat == trace.CatUserAnnotation:
			// Annotations delimit iterations; they are not tasks.
		case e.IsCPU():
			threadEvs[e.TID] = append(threadEvs[e.TID], e)
		case e.IsGPU():
			streamEvs[e.TID] = append(streamEvs[e.TID], e)
		}
	}

	byStart := func(evs []*trace.Event) {
		sort.SliceStable(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur // enclosing spans first
		})
	}

	// corrToCPU maps a correlation ID to the CPU task that performed the
	// launch (the operator task when the launch is nested inside one).
	corrToCPU := map[int64]int32{}
	// launchTimeOf records when each correlation's launch ran on the CPU,
	// for ordering kernels by enqueue time.
	launchTimeOf := map[int64]trace.Time{}

	var cpuByThread [][]cpuTaskRef
	threadIDs := make([]int, 0, len(threadEvs))
	for tid := range threadEvs {
		threadIDs = append(threadIDs, tid)
	}
	sort.Ints(threadIDs)

	// CPU tasks: operator events and bare runtime events; launch runtime
	// events nested inside an operator are folded into the operator task.
	for _, tid := range threadIDs {
		evs := threadEvs[tid]
		byStart(evs)
		proc := g.proc(rank, false, tid)
		var tasks []cpuTaskRef
		var curOp int32 = -1
		var curOpEnd trace.Time
		for _, e := range evs {
			nested := curOp >= 0 && e.Ts >= g.Tasks[curOp].Start && e.End() <= curOpEnd
			if e.Cat == trace.CatCUDARuntime && nested {
				if e.Correlation != 0 {
					corrToCPU[e.Correlation] = curOp
					launchTimeOf[e.Correlation] = e.Ts
				}
				continue
			}
			t := Task{
				Kind:       TaskCPU,
				Rank:       int32(rank),
				Proc:       proc,
				Name:       e.Name,
				Start:      e.Ts,
				Dur:        e.Dur,
				Runtime:    e.Runtime,
				CUDAEvent:  e.CUDAEvent,
				Layer:      int32(e.Layer),
				Microbatch: int32(e.Microbatch),
				Pass:       e.Pass,
			}
			if e.Cat == trace.CatCUDARuntime {
				switch e.Runtime {
				case trace.RuntimeStreamSynchronize, trace.RuntimeEventSynchronize:
					t.Sync = SyncStream
					t.SyncStreamID = int32(e.Stream)
				case trace.RuntimeDeviceSynchronize:
					t.Sync = SyncDevice
					t.SyncStreamID = -1
				case trace.RuntimeEventRecord, trace.RuntimeStreamWaitEvent:
					t.SyncStreamID = int32(e.Stream)
				}
			}
			id := g.addTask(t)
			if e.Cat == trace.CatCUDARuntime && e.Correlation != 0 {
				corrToCPU[e.Correlation] = id
				launchTimeOf[e.Correlation] = e.Ts
			}
			if e.Cat == trace.CatCPUOp {
				curOp = id
				curOpEnd = e.End()
			}
			tasks = append(tasks, cpuTaskRef{id, e})
		}
		// CPU→CPU intra-thread sequential dependencies.
		for i := 1; i < len(tasks); i++ {
			g.AddEdge(tasks[i-1].id, tasks[i].id)
		}
		cpuByThread = append(cpuByThread, tasks)
	}

	// GPU tasks per stream. FIFO queues guarantee a stream's start order
	// equals its enqueue order, so sorting by start recovers queue order.
	kernsByStream := map[int][]kernRef{}
	streamIDs := make([]int, 0, len(streamEvs))
	for sid := range streamEvs {
		streamIDs = append(streamIDs, sid)
	}
	sort.Ints(streamIDs)
	for _, sid := range streamIDs {
		evs := streamEvs[sid]
		byStart(evs)
		proc := g.proc(rank, true, sid)
		var kerns []kernRef
		for _, e := range evs {
			t := Task{
				Kind:       TaskGPU,
				Rank:       int32(rank),
				Proc:       proc,
				Name:       e.Name,
				Start:      e.Ts,
				Dur:        e.Dur,
				Class:      e.Class,
				Comm:       e.Comm,
				CommID:     e.CommID,
				CommSeq:    e.CommSeq,
				CommBytes:  e.CommBytes,
				FLOPs:      e.FLOPs,
				Bytes:      e.Bytes,
				Layer:      int32(e.Layer),
				Microbatch: int32(e.Microbatch),
				Pass:       e.Pass,
				LaunchTask: -1,
			}
			id := g.addTask(t)
			la := e.Ts
			if lt, ok := launchTimeOf[e.Correlation]; ok {
				la = lt
			}
			kerns = append(kerns, kernRef{id, e, la})
			// CPU→GPU dependency via correlation ID.
			if cpu, ok := corrToCPU[e.Correlation]; ok {
				g.AddEdge(cpu, id)
				g.Tasks[id].LaunchTask = cpu
			}
			if e.IsComm() && e.CommID != 0 {
				key := GroupKey{e.CommID, e.CommSeq}
				g.Groups[key] = append(g.Groups[key], id)
			}
		}
		// GPU→GPU intra-stream dependencies.
		for i := 1; i < len(kerns); i++ {
			g.AddEdge(kerns[i-1].id, kerns[i].id)
		}
		kernsByStream[sid] = kerns
	}

	if opts.InterStream != InterStreamNone {
		buildInterStream(g, cpuByThread, kernsByStream, opts.InterStream)
	}
	if opts.InterThreadDeps && len(cpuByThread) > 1 {
		buildInterThread(g, cpuByThread)
	}
	return nil
}

// buildInterStream recovers GPU→GPU inter-stream dependencies from
// cudaEventRecord / cudaStreamWaitEvent pairs: the record on stream A
// snapshots A's most recently launched kernel as of the record's CPU time;
// the matching wait on stream B makes B's next launched kernel depend on
// that snapshot.
func buildInterStream(g *Graph, cpuByThread [][]cpuTaskRef, kernsByStream map[int][]kernRef, mode InterStreamMode) {
	// snapshot[eventHandle] = kernel task the event resolves to (-1 = none).
	snapshot := map[int64]int32{}

	// Gather record and wait runtime tasks across threads, then process in
	// CPU time order so records precede their waits.
	type rw struct {
		id     int32
		ev     *trace.Event
		record bool
	}
	var ops []rw
	for _, tasks := range cpuByThread {
		for _, t := range tasks {
			if t.ev.Cat != trace.CatCUDARuntime {
				continue
			}
			switch t.ev.Runtime {
			case trace.RuntimeEventRecord:
				ops = append(ops, rw{t.id, t.ev, true})
			case trace.RuntimeStreamWaitEvent:
				ops = append(ops, rw{t.id, t.ev, false})
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].ev.Ts < ops[j].ev.Ts })

	// lastLaunchedBefore returns the last kernel on stream sid launched
	// strictly before t, or -1.
	lastLaunchedBefore := func(sid int, t trace.Time) int32 {
		kerns := kernsByStream[sid]
		idx := sort.Search(len(kerns), func(i int) bool { return kerns[i].launchAt >= t })
		if idx == 0 {
			return -1
		}
		return kerns[idx-1].id
	}
	// firstLaunchedAfter returns the first kernel on stream sid launched at
	// or after t, or -1.
	firstLaunchedAfter := func(sid int, t trace.Time) int32 {
		kerns := kernsByStream[sid]
		idx := sort.Search(len(kerns), func(i int) bool { return kerns[i].launchAt >= t })
		if idx >= len(kerns) {
			return -1
		}
		return kerns[idx].id
	}

	for _, op := range ops {
		if op.record {
			snapshot[op.ev.CUDAEvent] = lastLaunchedBefore(op.ev.Stream, op.ev.Ts)
			continue
		}
		src, ok := snapshot[op.ev.CUDAEvent]
		if !ok || src < 0 {
			continue // wait before record, or empty stream: no-op in CUDA
		}
		dst := firstLaunchedAfter(op.ev.Stream, op.ev.Ts)
		if dst < 0 || dst == src {
			continue
		}
		// Recorded times must respect the edge; guard against degenerate
		// traces where the "dependent" kernel started earlier (would create
		// a cycle in replay ordering but not in reality).
		if g.Tasks[src].End() > g.Tasks[dst].Start {
			continue
		}
		if mode == InterStreamComputeToComm && !g.Tasks[dst].IsComm() {
			continue
		}
		g.AddEdge(src, dst)
	}
}

// buildInterThread applies the paper's gap heuristic: a task that starts
// after an idle gap of at least gapThreshold on its thread is assumed to
// have been unblocked by whichever CPU task on another thread of the same
// rank finished most recently before it.
func buildInterThread(g *Graph, cpuByThread [][]cpuTaskRef) {
	// endsByThread[i] = tasks of thread i sorted by end time.
	endsByThread := make([][]cpuTaskRef, len(cpuByThread))
	for i, tasks := range cpuByThread {
		sorted := make([]cpuTaskRef, len(tasks))
		copy(sorted, tasks)
		sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].ev.End() < sorted[b].ev.End() })
		endsByThread[i] = sorted
	}

	// latestEndBefore returns the task on thread ti with the greatest end
	// <= t, or -1.
	latestEndBefore := func(ti int, t trace.Time) int32 {
		s := endsByThread[ti]
		idx := sort.Search(len(s), func(i int) bool { return s[i].ev.End() > t })
		if idx == 0 {
			return -1
		}
		return s[idx-1].id
	}

	for ti, tasks := range cpuByThread {
		var prevEnd trace.Time // thread start counts as a gap origin
		for i, t := range tasks {
			gap := t.ev.Ts - prevEnd
			prevEnd = t.ev.End()
			if i > 0 && gap < gapThreshold {
				continue
			}
			if i == 0 && t.ev.Ts == 0 {
				continue
			}
			// Find the unblocking task on some other thread.
			var best int32 = -1
			var bestEnd trace.Time = -1
			for tj := range cpuByThread {
				if tj == ti {
					continue
				}
				cand := latestEndBefore(tj, t.ev.Ts)
				if cand >= 0 && g.Tasks[cand].End() > bestEnd {
					best = cand
					bestEnd = g.Tasks[cand].End()
				}
			}
			if best >= 0 {
				g.AddEdge(best, t.id)
			}
		}
	}
}

// Package replay implements the paper's simulation algorithm (Section 3.5,
// Algorithm 1): a task-graph simulator that assigns each task to its
// processor (CPU thread or CUDA stream), honors fixed dependencies seeded at
// initialization and runtime dependencies resolved during execution
// (synchronization calls and cross-rank collective rendezvous), and produces
// an output trace with the replayed timestamps of every task.
//
// Two engines implement the algorithm. The compiled engine (Compile,
// Program, Scratch) is the one every caller replays on: it lowers a graph
// once into flat columns and runs allocation-free on reusable scratch. The
// Simulator interprets the graph directly, task by task, and is kept as
// the reference the compiled engine is tested against. Both take duration
// overrides one way: a Timings value of flat per-task columns, seeded
// with the recorded durations (NewTimings, Program.BaseDur) and rewritten
// by the what-if before the run. The graph itself is never mutated.
package replay

import (
	"container/heap"
	"fmt"
	"math"

	"lumos/internal/execgraph"
	"lumos/internal/trace"
)

// Options tunes the simulator.
type Options struct {
	// SyncMinDur is the minimum duration of a blocking synchronization call.
	SyncMinDur trace.Dur
	// CoupleCollectives enables cross-rank rendezvous semantics: all members
	// of a collective group finish together at max(ready)+GroupDur. When
	// false each comm kernel simply replays its recorded duration.
	CoupleCollectives bool
}

// DefaultOptions returns the settings used throughout the evaluation.
func DefaultOptions() Options {
	return Options{SyncMinDur: 1500, CoupleCollectives: true}
}

// Timings carries flat duration overrides for one run of either engine,
// indexed by graph task ID. A nil column falls back to the graph's
// recorded durations; a non-nil column must cover every task of the graph.
type Timings struct {
	Dur      []trace.Dur
	GroupDur []trace.Dur
}

// NewTimings returns fresh columns seeded with g's recorded task and
// collective-group durations, ready for a what-if to rewrite.
func NewTimings(g *execgraph.Graph) Timings {
	t := Timings{Dur: make([]trace.Dur, len(g.Tasks)), GroupDur: make([]trace.Dur, len(g.Tasks))}
	for i := range g.Tasks {
		t.Dur[i] = g.Tasks[i].Dur
		t.GroupDur[i] = g.Tasks[i].GroupDur
	}
	return t
}

// DeadlockError reports a simulation that could not execute every task:
// the dependency structure left tasks permanently blocked (an invalid or
// cyclic-at-runtime graph).
type DeadlockError struct {
	// Executed and Total count simulated vs expected tasks.
	Executed, Total int
	// Stuck samples up to eight unfinished task IDs for diagnosis.
	Stuck []int32
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("replay: deadlock: simulated %d of %d tasks (stuck tasks include %v)",
		e.Executed, e.Total, e.Stuck)
}

// Result is a completed simulation.
type Result struct {
	// Start and End hold replayed times indexed by task ID. Results from
	// a Simulator or Program.Run alias the simulator's or scratch's
	// buffers and are valid until its next Run; package-level Run returns
	// independently owned slices.
	Start, End []trace.Time
	// Makespan is the global simulated iteration time (max end − min start).
	Makespan trace.Dur
	// RankSpan holds each rank's simulated [start, end).
	RankSpan []struct{ Start, End trace.Time }
	// Executed counts simulated tasks (equals the task count on success).
	Executed int
}

// readyItem orders the ready heap by recorded start time so the simulator's
// pick() matches the profiled execution order, with task ID as tiebreak.
type readyItem struct {
	task     int32
	recStart trace.Time
}

type readyHeap []readyItem

func (h readyHeap) Len() int { return len(h) }
func (h readyHeap) Less(i, j int) bool {
	if h[i].recStart != h[j].recStart {
		return h[i].recStart < h[j].recStart
	}
	return h[i].task < h[j].task
}
func (h readyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *readyHeap) Push(x any)   { *h = append(*h, x.(readyItem)) }
func (h *readyHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Simulator is a reusable Algorithm 1 instance. Binding to a graph derives
// shape state (initial dependency counts, per-stream kernel queues,
// collective group membership) once; each Run resets only the per-run
// state. A Simulator is not safe for concurrent use — pool simulators, one
// per worker, to run sweeps in parallel.
type Simulator struct {
	opts Options

	// Shape state, derived per bound graph.
	g            *execgraph.Graph
	depsInit     []int32
	procKernels  [][]int32
	rankGPUProcs [][]int32
	groupIdxOf   map[int32]int32 // comm task → group index
	groupExpect  []int32
	nGroups      int

	// Per-run state.
	t          Timings
	deps       []int32
	earliest   []trace.Time
	start, end []trace.Time
	done       []bool
	procTime   []trace.Time
	procCursor []int
	ready      readyHeap

	syncWaiters map[int32][]int32
	syncMaxEnd  map[int32]trace.Time

	groupArrived [][]int32
	groupReady   [][]trace.Time

	executed int
}

// NewSimulator returns a simulator with the given options and no bound
// graph; the first Run binds it.
func NewSimulator(opts Options) *Simulator {
	return &Simulator{
		opts:        opts,
		syncWaiters: map[int32][]int32{},
		syncMaxEnd:  map[int32]trace.Time{},
		groupIdxOf:  map[int32]int32{},
	}
}

// Run simulates the graph on the compiled engine with its recorded
// durations and returns replayed task times. It is the one-shot entry
// point: a fresh program and scratch per call, so the Result owns its
// buffers.
func Run(g *execgraph.Graph, opts Options) (*Result, error) {
	return Compile(g, opts).Run(Timings{}, NewScratch())
}

// bind derives graph-shape state, reusing buffer capacity where possible.
func (s *Simulator) bind(g *execgraph.Graph) {
	n := len(g.Tasks)
	s.g = g

	s.depsInit = resize(s.depsInit, n)
	s.deps = resize(s.deps, n)
	s.earliest = resize(s.earliest, n)
	s.start = resize(s.start, n)
	s.end = resize(s.end, n)
	s.done = resize(s.done, n)
	s.procTime = resize(s.procTime, len(g.Procs))
	s.procCursor = resize(s.procCursor, len(g.Procs))

	s.procKernels = resize(s.procKernels, len(g.Procs))
	for p := range s.procKernels {
		s.procKernels[p] = s.procKernels[p][:0]
	}
	s.rankGPUProcs = resize(s.rankGPUProcs, g.NumRanks)
	for r := range s.rankGPUProcs {
		s.rankGPUProcs[r] = s.rankGPUProcs[r][:0]
	}
	for i := range g.Tasks {
		t := &g.Tasks[i]
		s.depsInit[i] = t.NFixedIn
		if t.Kind == execgraph.TaskGPU {
			s.procKernels[t.Proc] = append(s.procKernels[t.Proc], int32(i))
		}
	}
	for p := range g.Procs {
		if g.Procs[p].IsGPU {
			r := g.Procs[p].Rank
			s.rankGPUProcs[r] = append(s.rankGPUProcs[r], int32(p))
		}
	}

	clear(s.groupIdxOf)
	s.nGroups = 0
	if s.opts.CoupleCollectives {
		s.groupExpect = s.groupExpect[:0]
		for _, members := range g.Groups {
			idx := int32(s.nGroups)
			s.nGroups++
			s.groupExpect = append(s.groupExpect, int32(len(members)))
			for _, id := range members {
				s.groupIdxOf[id] = idx
			}
		}
	}
	s.groupArrived = resize(s.groupArrived, s.nGroups)
	s.groupReady = resize(s.groupReady, s.nGroups)
}

// resize returns a slice of length n, reusing s's capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset clears per-run state.
func (s *Simulator) reset() {
	copy(s.deps, s.depsInit)
	clear(s.earliest)
	clear(s.done)
	clear(s.procTime)
	clear(s.procCursor)
	s.ready = s.ready[:0]
	clear(s.syncWaiters)
	clear(s.syncMaxEnd)
	for i := 0; i < s.nGroups; i++ {
		s.groupArrived[i] = s.groupArrived[i][:0]
		s.groupReady[i] = s.groupReady[i][:0]
	}
	s.executed = 0
}

// Run simulates the graph under the given timings, exactly as
// Program.Run does. The returned Result's Start/End slices alias
// simulator-owned buffers valid until the next Run on this simulator.
func (s *Simulator) Run(g *execgraph.Graph, t Timings) (*Result, error) {
	// Shape state is keyed on graph identity; re-derive it if the graph
	// grew since it was bound (builders may append tasks between runs).
	// Mutating the edges of an already-bound graph is not supported.
	if s.g != g || len(s.depsInit) != len(g.Tasks) {
		s.bind(g)
	}
	s.t = t
	s.reset()

	n := len(g.Tasks)
	for i := range g.Tasks {
		if s.deps[i] == 0 {
			heap.Push(&s.ready, readyItem{int32(i), g.Tasks[i].Start})
		}
	}
	for s.ready.Len() > 0 {
		it := heap.Pop(&s.ready).(readyItem)
		s.execute(it.task)
	}

	if s.executed != n {
		e := &DeadlockError{Executed: s.executed, Total: n}
		for i := range s.done {
			if !s.done[i] {
				e.Stuck = append(e.Stuck, int32(i))
				if len(e.Stuck) == 8 {
					break
				}
			}
		}
		return nil, e
	}

	res := &Result{Start: s.start, End: s.end, Executed: s.executed}
	res.RankSpan = make([]struct{ Start, End trace.Time }, g.NumRanks)
	for r := range res.RankSpan {
		res.RankSpan[r].Start = math.MaxInt64
	}
	var lo, hi trace.Time = math.MaxInt64, 0
	for i := range g.Tasks {
		r := g.Tasks[i].Rank
		if s.start[i] < res.RankSpan[r].Start {
			res.RankSpan[r].Start = s.start[i]
		}
		if s.end[i] > res.RankSpan[r].End {
			res.RankSpan[r].End = s.end[i]
		}
		if s.start[i] < lo {
			lo = s.start[i]
		}
		if s.end[i] > hi {
			hi = s.end[i]
		}
	}
	if n > 0 {
		res.Makespan = hi - lo
	}
	return res, nil
}

// dur returns a task's effective duration under the run's timings.
func (s *Simulator) dur(id int32) trace.Dur {
	if s.t.Dur != nil {
		return s.t.Dur[id]
	}
	return s.g.Tasks[id].Dur
}

// groupDur returns a task's effective intrinsic collective duration.
func (s *Simulator) groupDur(id int32) trace.Dur {
	if s.t.GroupDur != nil {
		return s.t.GroupDur[id]
	}
	return s.g.Tasks[id].GroupDur
}

// execute runs one ready task, applying runtime-dependency semantics.
func (s *Simulator) execute(id int32) {
	t := &s.g.Tasks[id]

	// Runtime dependencies of synchronization tasks: all kernels enqueued
	// so far (launch task finished) on the awaited stream(s) that have not
	// yet completed. Kernels that were already simulated still bound the
	// sync through the stream frontier, folded into syncMaxEnd here.
	if t.Sync != execgraph.SyncNone {
		s.foldStreamFrontiers(id, t)
		if pending := s.gatherSyncDeps(id, t); pending > 0 {
			s.deps[id] += pending
			return // re-queued as the awaited kernels finish
		}
		s.finishSync(id, t)
		return
	}

	// Collective rendezvous.
	if s.opts.CoupleCollectives {
		if gi, ok := s.groupIdxOf[id]; ok {
			s.arrive(id, gi)
			return
		}
	}

	start := s.earliest[id]
	if p := s.procTime[t.Proc]; p > start {
		start = p
	}
	s.finish(id, start, start+s.dur(id))
}

// foldStreamFrontiers accounts for already-simulated kernels on the awaited
// stream(s): their completion times are the stream frontiers, which lower-
// bound the sync's end.
func (s *Simulator) foldStreamFrontiers(id int32, t *execgraph.Task) {
	for _, p := range s.rankGPUProcs[t.Rank] {
		proc := &s.g.Procs[p]
		if t.Sync == execgraph.SyncStream && proc.TID != int(t.SyncStreamID) {
			continue
		}
		if f := s.procTime[p]; f > s.syncMaxEnd[id] {
			s.syncMaxEnd[id] = f
		}
	}
}

// gatherSyncDeps registers the sync task as a waiter on every unfinished
// enqueued kernel of its target stream(s); it returns the number of
// registrations.
func (s *Simulator) gatherSyncDeps(id int32, t *execgraph.Task) int32 {
	var pending int32
	register := func(proc int32) {
		kerns := s.procKernels[proc]
		for i := s.procCursor[proc]; i < len(kerns); i++ {
			k := kerns[i]
			if s.done[k] {
				continue
			}
			lt := s.g.Tasks[k].LaunchTask
			if lt >= 0 && !s.done[lt] {
				// Not yet enqueued: FIFO order means no later kernel on this
				// stream is enqueued either.
				break
			}
			s.syncWaiters[k] = append(s.syncWaiters[k], id)
			pending++
		}
	}
	for _, p := range s.rankGPUProcs[t.Rank] {
		proc := &s.g.Procs[p]
		if t.Sync == execgraph.SyncStream && proc.TID != int(t.SyncStreamID) {
			continue
		}
		register(p)
	}
	return pending
}

// finishSync completes a synchronization task once its awaited kernels are
// done: it blocks from its start until the latest of them finished.
func (s *Simulator) finishSync(id int32, t *execgraph.Task) {
	start := s.earliest[id]
	if p := s.procTime[t.Proc]; p > start {
		start = p
	}
	end := start + s.opts.SyncMinDur
	if m, ok := s.syncMaxEnd[id]; ok && m > end {
		end = m
	}
	delete(s.syncMaxEnd, id)
	s.finish(id, start, end)
}

// arrive registers a collective member; the group resolves when all
// participants have arrived, finishing together at max(ready)+GroupDur.
func (s *Simulator) arrive(id int32, gi int32) {
	t := &s.g.Tasks[id]
	ready := s.earliest[id]
	if p := s.procTime[t.Proc]; p > ready {
		ready = p
	}
	s.groupArrived[gi] = append(s.groupArrived[gi], id)
	s.groupReady[gi] = append(s.groupReady[gi], ready)
	// Block the stream until the collective resolves so later kernels in
	// the queue cannot jump ahead (they depend on this task anyway via the
	// intra-stream chain; this keeps procTime consistent).
	if int32(len(s.groupArrived[gi])) < s.groupExpect[gi] {
		return
	}
	arrived, readyT := s.groupArrived[gi], s.groupReady[gi]
	var maxReady trace.Time
	for _, r := range readyT {
		if r > maxReady {
			maxReady = r
		}
	}
	dur := s.groupDur(arrived[0])
	if dur <= 0 {
		dur = s.dur(arrived[0])
	}
	end := maxReady + dur
	for i, member := range arrived {
		s.finish(member, readyT[i], end)
	}
}

// finish completes a task: records times, advances its processor, unblocks
// dependents, sync waiters, and GPU queue cursors.
func (s *Simulator) finish(id int32, start, end trace.Time) {
	t := &s.g.Tasks[id]
	s.start[id] = start
	s.end[id] = end
	s.done[id] = true
	s.executed++
	if end > s.procTime[t.Proc] {
		s.procTime[t.Proc] = end
	}

	// Advance the stream cursor past finished kernels.
	if t.Kind == execgraph.TaskGPU {
		kerns := s.procKernels[t.Proc]
		cur := s.procCursor[t.Proc]
		for cur < len(kerns) && s.done[kerns[cur]] {
			cur++
		}
		s.procCursor[t.Proc] = cur
	}

	for _, c := range t.Out {
		if end > s.earliest[c] {
			s.earliest[c] = end
		}
		s.deps[c]--
		if s.deps[c] == 0 {
			heap.Push(&s.ready, readyItem{c, s.g.Tasks[c].Start})
		}
	}

	if waiters, ok := s.syncWaiters[id]; ok {
		for _, w := range waiters {
			if end > s.syncMaxEnd[w] {
				s.syncMaxEnd[w] = end
			}
			s.deps[w]--
			if s.deps[w] == 0 {
				heap.Push(&s.ready, readyItem{w, s.g.Tasks[w].Start})
			}
		}
		delete(s.syncWaiters, id)
	}
}

// ToTrace materializes the simulation as per-rank traces with replayed
// timestamps, mirroring the structure of the originally collected trace so
// downstream analyses run unchanged on real and simulated executions. A
// graph synthesized under merged price classes (see execgraph.Graph)
// emits events for its simulated ranks only; the other ranks' traces stay
// empty, so trace-level averages over it are not weighted by class size.
func ToTrace(g *execgraph.Graph, res *Result) *trace.Multi {
	m := trace.NewMulti(g.NumRanks)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		proc := &g.Procs[t.Proc]
		e := trace.Event{
			Name:       t.Name,
			Ts:         res.Start[i],
			Dur:        res.End[i] - res.Start[i],
			PID:        int(t.Rank),
			TID:        proc.TID,
			Stream:     -1,
			PeerRank:   -1,
			Layer:      int(t.Layer),
			Microbatch: int(t.Microbatch),
			Pass:       t.Pass,
		}
		if t.Kind == execgraph.TaskGPU {
			e.Cat = trace.CatKernel
			e.Stream = proc.TID
			e.Class = t.Class
			e.Comm = t.Comm
			e.CommID = t.CommID
			e.CommSeq = t.CommSeq
			e.CommBytes = t.CommBytes
			e.FLOPs = t.FLOPs
			e.Bytes = t.Bytes
			e.Correlation = int64(i) + 1
		} else if t.Runtime != trace.RuntimeNone {
			e.Cat = trace.CatCUDARuntime
			e.Runtime = t.Runtime
			e.CUDAEvent = t.CUDAEvent
			e.Stream = int(t.SyncStreamID)
		} else {
			e.Cat = trace.CatCPUOp
		}
		m.Ranks[int(t.Rank)].Add(e)
	}
	for _, tr := range m.Ranks {
		tr.Sort()
	}
	return m
}

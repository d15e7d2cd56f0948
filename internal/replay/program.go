// Compiled replay engine: Compile lowers a synthesized execgraph once into
// an immutable structure-of-arrays Program — int-indexed task columns,
// CSR-flattened dependency edges, dense per-resource kernel lanes, and a
// precomputed seed frontier — and Program.Run executes retimed simulations
// against it with a small reusable Scratch. The steady path allocates
// nothing: the ready heap is a hand-rolled binary heap on a scratch slice
// (no container/heap interface boxing), sync waiter lists are intrusive
// chains in a pooled arena, and collective rendezvous state lives in flat
// CSR slots sized at compile time.
//
// Compile numbers the program's tasks by (recorded start, task ID). The
// replay executes tasks roughly in recorded-start order, so a task's
// successors, lane neighbours and waiters sit near it in every column,
// and the ready heap holds bare program indices: comparing two indices is
// comparing (recorded start, task ID). Durations come in, and replayed
// times go out, indexed by graph task ID; the order column maps between
// the two.
//
// The engine is bit-identical to the Simulator interpreter: the ready heap
// pops by (recorded start, task ID) — a strict total order, so any
// conforming heap pops the same sequence — and waiter/rendezvous folds are
// order-independent max-reductions. The interpreter remains as the
// reference implementation the tests compare against.
package replay

import (
	"cmp"
	"math"
	"slices"

	"lumos/internal/execgraph"
	"lumos/internal/trace"
)

// Program is an immutable compiled form of an execution graph. It keeps no
// reference to the graph it was compiled from. It is safe for concurrent
// Run calls as long as each goroutine brings its own Scratch.
// Every task-indexed column except the two base duration columns is in
// program order (see Compile); task references inside the program (edges,
// lanes, launch tasks, seeds) are program indices.
type Program struct {
	opts Options

	nTasks int
	nProcs int
	nRanks int

	// Per-task columns, in program order.
	kind       []execgraph.TaskKind
	sync       []execgraph.SyncKind
	proc       []int32
	rank       []int32
	syncStream []int32
	launch     []int32
	depsInit   []int32
	// order maps a program index to its graph task ID.
	order []int32

	// baseDur and baseGDur are the recorded durations, indexed by graph
	// task ID like Timings.
	baseDur  []trace.Dur
	baseGDur []trace.Dur

	// CSR out-edges: outEdge[outStart[id]:outStart[id+1]].
	outStart []int32
	outEdge  []int32

	// CSR per-processor GPU kernel lanes in graph task order.
	kernStart []int32
	kern      []int32

	// CSR rank → GPU processor indices, plus per-processor stream TIDs for
	// SyncStream filtering.
	rankProcStart []int32
	rankProc      []int32
	procTID       []int32

	// Collective groups (populated only under CoupleCollectives):
	// groupOf maps a task to its group index (-1 none); arrival slots for
	// group gi live at [groupOff[gi], groupOff[gi]+groupExpect[gi]).
	groupOf     []int32
	groupExpect []int32
	groupOff    []int32
	nGroups     int
	groupSlots  int

	// seeds lists tasks with no fixed in-edges in ascending program index
	// — the initial ready frontier, already a valid min-heap, precomputed
	// so runs skip the O(n) scan.
	seeds []int32
}

// Compile lowers g into an immutable structure-of-arrays program, numbering
// its tasks by (recorded start, task ID) — the ready heap's pop order.
func Compile(g *execgraph.Graph, opts Options) *Program {
	n := len(g.Tasks)
	p := &Program{
		opts:   opts,
		nTasks: n,
		nProcs: len(g.Procs),
		nRanks: g.NumRanks,

		kind:       make([]execgraph.TaskKind, n),
		sync:       make([]execgraph.SyncKind, n),
		proc:       make([]int32, n),
		rank:       make([]int32, n),
		syncStream: make([]int32, n),
		launch:     make([]int32, n),
		depsInit:   make([]int32, n),
		baseDur:    make([]trace.Dur, n),
		baseGDur:   make([]trace.Dur, n),
		outStart:   make([]int32, n+1),
		groupOf:    make([]int32, n),
		kernStart:  make([]int32, len(g.Procs)+1),
	}

	// Number the tasks, then size the CSR columns in program order so the
	// scatter below writes every column in place.
	p.order = startOrder(g.Tasks)
	// pos is the inverse of order: graph task ID → program index. Only
	// compilation needs it.
	pos := make([]int32, n)
	for i, id := range p.order {
		pos[id] = int32(i)
		p.outStart[i+1] = p.outStart[i] + int32(len(g.Tasks[id].Out))
	}
	p.outEdge = make([]int32, p.outStart[n])
	for i := range g.Tasks {
		if g.Tasks[i].Kind == execgraph.TaskGPU {
			p.kernStart[g.Tasks[i].Proc+1]++
		}
	}
	for pr := 0; pr < p.nProcs; pr++ {
		p.kernStart[pr+1] += p.kernStart[pr]
	}
	p.kern = make([]int32, p.kernStart[p.nProcs])
	fill := make([]int32, p.nProcs)

	// Read the tasks in graph order and scatter each to its program slot. Kernel lanes keep graph task order (matching the
	// interpreter's bind, which appends while scanning tasks): a lane is
	// its stream's FIFO, whatever the program order.
	for i := range g.Tasks {
		t := &g.Tasks[i]
		j := pos[i]
		p.kind[j] = t.Kind
		p.sync[j] = t.Sync
		p.proc[j] = t.Proc
		p.rank[j] = t.Rank
		p.syncStream[j] = t.SyncStreamID
		p.launch[j] = -1
		if t.LaunchTask >= 0 {
			p.launch[j] = pos[t.LaunchTask]
		}
		p.depsInit[j] = t.NFixedIn
		p.groupOf[j] = -1
		edges := p.outEdge[p.outStart[j]:p.outStart[j+1]]
		for k, c := range t.Out {
			edges[k] = pos[c]
		}
		p.baseDur[i] = t.Dur
		p.baseGDur[i] = t.GroupDur
		if t.Kind == execgraph.TaskGPU {
			p.kern[p.kernStart[t.Proc]+fill[t.Proc]] = j
			fill[t.Proc]++
		}
	}
	for j, deps := range p.depsInit {
		if deps == 0 {
			p.seeds = append(p.seeds, int32(j))
		}
	}

	// Rank → GPU processors, CSR in processor-index order.
	p.procTID = make([]int32, p.nProcs)
	p.rankProcStart = make([]int32, p.nRanks+1)
	for pr := range g.Procs {
		p.procTID[pr] = int32(g.Procs[pr].TID)
		if g.Procs[pr].IsGPU {
			p.rankProcStart[g.Procs[pr].Rank+1]++
		}
	}
	for r := 0; r < p.nRanks; r++ {
		p.rankProcStart[r+1] += p.rankProcStart[r]
	}
	rfill := make([]int32, p.nRanks)
	p.rankProc = make([]int32, p.rankProcStart[p.nRanks])
	for pr := range g.Procs {
		if g.Procs[pr].IsGPU {
			r := g.Procs[pr].Rank
			p.rankProc[p.rankProcStart[r]+rfill[r]] = int32(pr)
			rfill[r]++
		}
	}

	// Collective rendezvous slots. Group index assignment follows map
	// iteration order; rendezvous semantics are order-independent, so the
	// order only affects internal layout.
	if opts.CoupleCollectives {
		for _, members := range g.Groups {
			gi := int32(p.nGroups)
			p.nGroups++
			p.groupExpect = append(p.groupExpect, int32(len(members)))
			p.groupOff = append(p.groupOff, int32(p.groupSlots))
			p.groupSlots += len(members)
			for _, id := range members {
				p.groupOf[pos[id]] = gi
			}
		}
	}
	return p
}

// startOrder returns the task IDs sorted by (recorded start, task ID): the
// program order, mapping a program index to its graph task ID.
func startOrder(tasks []execgraph.Task) []int32 {
	starts := make([]trace.Time, len(tasks))
	order := make([]int32, len(tasks))
	for i := range tasks {
		starts[i] = tasks[i].Start
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if starts[a] != starts[b] {
			return cmp.Compare(starts[a], starts[b])
		}
		return cmp.Compare(a, b)
	})
	return order
}

// BaseDur returns the recorded per-task duration column, indexed by graph
// task ID. The slice is program-owned and must not be modified; copy it to
// seed a Timings buffer.
func (p *Program) BaseDur() []trace.Dur { return p.baseDur }

// BaseGroupDur returns the recorded intrinsic collective duration column.
// Program-owned, read-only; copy it to seed a Timings buffer.
func (p *Program) BaseGroupDur() []trace.Dur { return p.baseGDur }

// waiterNode is one entry of an intrusive sync-waiter chain: sync is the
// blocked synchronization task, next the arena index+1 of the next node
// (0 terminates).
type waiterNode struct {
	sync int32
	next int32
}

// Scratch is the reusable mutable state for Program.Run. A zero Scratch is
// ready to use; it grows to fit the largest program it has run and resets
// with memclr-speed clears. Not safe for concurrent use — pool scratches,
// one per worker. start and end are indexed by graph task ID (they back
// Result); every other task column by program index.
type Scratch struct {
	prog *Program
	dur  []trace.Dur
	gdur []trace.Dur

	deps       []int32
	earliest   []trace.Time
	start, end []trace.Time
	done       []bool
	procTime   []trace.Time
	procCursor []int32
	ready      []int32

	// syncMaxEnd is dense per task (stored values are always > 0, so the
	// zero value means "absent" exactly like the interpreter's map).
	syncMaxEnd []trace.Time
	// waiterHead holds, per task, the arena index+1 of its first waiter
	// node (0 = none); waiterArena is reset to length zero each run.
	waiterHead  []int32
	waiterArena []waiterNode

	groupCount  []int32
	groupMember []int32
	groupReady  []trace.Time

	executed int
	rankSpan []struct{ Start, End trace.Time }
	// lo and hi are the earliest start and latest end so far.
	lo, hi trace.Time
}

// NewScratch returns an empty scratch; Run sizes it on first use.
func NewScratch() *Scratch { return &Scratch{} }

// bind sizes the scratch for p (allocating only on growth) and clears all
// per-run state.
func (s *Scratch) bind(p *Program) {
	s.prog = p
	n := p.nTasks
	s.deps = resize(s.deps, n)
	s.earliest = resize(s.earliest, n)
	s.start = resize(s.start, n)
	s.end = resize(s.end, n)
	s.done = resize(s.done, n)
	s.syncMaxEnd = resize(s.syncMaxEnd, n)
	s.waiterHead = resize(s.waiterHead, n)
	s.procTime = resize(s.procTime, p.nProcs)
	s.procCursor = resize(s.procCursor, p.nProcs)
	s.groupCount = resize(s.groupCount, p.nGroups)
	s.groupMember = resize(s.groupMember, p.groupSlots)
	s.groupReady = resize(s.groupReady, p.groupSlots)
	s.rankSpan = resize(s.rankSpan, p.nRanks)

	copy(s.deps, p.depsInit)
	clear(s.earliest)
	clear(s.done)
	clear(s.syncMaxEnd)
	clear(s.waiterHead)
	clear(s.procTime)
	clear(s.procCursor)
	clear(s.groupCount)
	for r := range s.rankSpan {
		s.rankSpan[r] = struct{ Start, End trace.Time }{Start: math.MaxInt64}
	}
	s.lo, s.hi = math.MaxInt64, 0
	// The seeds ascend, so they already form a valid min-heap.
	s.ready = append(s.ready[:0], p.seeds...)
	s.waiterArena = s.waiterArena[:0]
	s.executed = 0
}

// pushReady inserts a task into the manual binary ready heap. Program
// indices follow (recorded start, task ID) — the same strict total order
// as the interpreter's container/heap — so the pop sequence is identical.
func (s *Scratch) pushReady(task int32) {
	h := append(s.ready, task)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[i] >= h[parent] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	s.ready = h
}

// popReady removes and returns the minimum ready task.
func (s *Scratch) popReady() int32 {
	h := s.ready
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l] < h[min] {
			min = l
		}
		if r < n && h[r] < h[min] {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	s.ready = h
	return top
}

// Run simulates the compiled graph under the given timings. The returned
// Result (and its Start/End/RankSpan slices) aliases scratch-owned buffers
// valid until the scratch's next Run. The steady path performs no heap
// allocation beyond one-time scratch growth.
func (p *Program) Run(t Timings, s *Scratch) (*Result, error) {
	s.bind(p)
	s.dur = t.Dur
	if s.dur == nil {
		s.dur = p.baseDur
	}
	s.gdur = t.GroupDur
	if s.gdur == nil {
		s.gdur = p.baseGDur
	}

	for len(s.ready) > 0 {
		s.execute(s.popReady())
	}

	n := p.nTasks
	if s.executed != n {
		e := &DeadlockError{Executed: s.executed, Total: n}
		for i, done := range s.done {
			if !done {
				e.Stuck = append(e.Stuck, p.order[i])
			}
		}
		// The lowest stuck graph task IDs, as the interpreter reports them.
		slices.Sort(e.Stuck)
		e.Stuck = e.Stuck[:min(len(e.Stuck), 8)]
		return nil, e
	}

	// A fresh Result per run (the only steady-path allocation), matching
	// the interpreter's contract: scalar fields outlive the scratch, while
	// Start/End/RankSpan alias scratch buffers valid until its next Run.
	// finish folded the rank spans and the makespan as tasks completed.
	res := &Result{Start: s.start, End: s.end, Executed: s.executed, RankSpan: s.rankSpan}
	if n > 0 {
		res.Makespan = s.hi - s.lo
	}
	return res, nil
}

// execute runs one ready task, mirroring Simulator.execute exactly.
func (s *Scratch) execute(id int32) {
	p := s.prog

	if p.sync[id] != execgraph.SyncNone {
		s.executeSync(id)
		return
	}

	if gi := p.groupOf[id]; gi >= 0 {
		s.arrive(id, gi)
		return
	}

	start := s.earliest[id]
	if pt := s.procTime[p.proc[id]]; pt > start {
		start = pt
	}
	s.finish(id, start, start+s.dur[p.order[id]])
}

// executeSync resolves a synchronization task's runtime dependencies: fold
// stream frontiers of already-finished kernels, register as a waiter on
// unfinished enqueued kernels, and complete once none remain.
func (s *Scratch) executeSync(id int32) {
	p := s.prog
	rank := p.rank[id]
	streamOnly := p.sync[id] == execgraph.SyncStream
	sid := p.syncStream[id]
	procs := p.rankProc[p.rankProcStart[rank]:p.rankProcStart[rank+1]]

	// Fold stream frontiers.
	maxEnd := s.syncMaxEnd[id]
	for _, pr := range procs {
		if streamOnly && p.procTID[pr] != sid {
			continue
		}
		if f := s.procTime[pr]; f > maxEnd {
			maxEnd = f
		}
	}
	s.syncMaxEnd[id] = maxEnd

	// Gather pending kernels: every unfinished enqueued kernel of the
	// awaited stream(s); FIFO order means an un-launched kernel ends the
	// scan of its lane.
	var pending int32
	for _, pr := range procs {
		if streamOnly && p.procTID[pr] != sid {
			continue
		}
		kerns := p.kern[p.kernStart[pr]:p.kernStart[pr+1]]
		for i := s.procCursor[pr]; i < int32(len(kerns)); i++ {
			k := kerns[i]
			if s.done[k] {
				continue
			}
			if lt := p.launch[k]; lt >= 0 && !s.done[lt] {
				break
			}
			s.waiterArena = append(s.waiterArena, waiterNode{sync: id, next: s.waiterHead[k]})
			s.waiterHead[k] = int32(len(s.waiterArena))
			pending++
		}
	}
	if pending > 0 {
		s.deps[id] += pending
		return // re-queued as the awaited kernels finish
	}

	start := s.earliest[id]
	if pt := s.procTime[p.proc[id]]; pt > start {
		start = pt
	}
	end := start + p.opts.SyncMinDur
	if m := s.syncMaxEnd[id]; m > end {
		end = m
	}
	s.finish(id, start, end)
}

// arrive registers a collective member in its group's flat slots; the group
// resolves when all participants have arrived, finishing together at
// max(ready)+GroupDur.
func (s *Scratch) arrive(id, gi int32) {
	p := s.prog
	ready := s.earliest[id]
	if pt := s.procTime[p.proc[id]]; pt > ready {
		ready = pt
	}
	off := p.groupOff[gi]
	cnt := s.groupCount[gi]
	s.groupMember[off+cnt] = id
	s.groupReady[off+cnt] = ready
	cnt++
	s.groupCount[gi] = cnt
	if cnt < p.groupExpect[gi] {
		return
	}
	members := s.groupMember[off : off+cnt]
	readyT := s.groupReady[off : off+cnt]
	var maxReady trace.Time
	for _, r := range readyT {
		if r > maxReady {
			maxReady = r
		}
	}
	first := p.order[members[0]]
	dur := s.gdur[first]
	if dur <= 0 {
		dur = s.dur[first]
	}
	end := maxReady + dur
	for i, member := range members {
		s.finish(member, readyT[i], end)
	}
}

// finish completes a task: records times, folds them into its rank's span
// and the makespan, advances its processor lane, and unblocks CSR
// dependents and chained sync waiters.
func (s *Scratch) finish(id int32, start, end trace.Time) {
	p := s.prog
	gid := p.order[id]
	s.start[gid] = start
	s.end[gid] = end
	s.done[id] = true
	s.executed++
	span := &s.rankSpan[p.rank[id]]
	if start < span.Start {
		span.Start = start
	}
	if end > span.End {
		span.End = end
	}
	if start < s.lo {
		s.lo = start
	}
	if end > s.hi {
		s.hi = end
	}
	pr := p.proc[id]
	if end > s.procTime[pr] {
		s.procTime[pr] = end
	}

	if p.kind[id] == execgraph.TaskGPU {
		kerns := p.kern[p.kernStart[pr]:p.kernStart[pr+1]]
		cur := s.procCursor[pr]
		for cur < int32(len(kerns)) && s.done[kerns[cur]] {
			cur++
		}
		s.procCursor[pr] = cur
	}

	for _, c := range p.outEdge[p.outStart[id]:p.outStart[id+1]] {
		if end > s.earliest[c] {
			s.earliest[c] = end
		}
		s.deps[c]--
		if s.deps[c] == 0 {
			s.pushReady(c)
		}
	}

	for node := s.waiterHead[id]; node != 0; {
		wn := waiterNode{}
		wn, node = s.waiterArena[node-1], s.waiterArena[node-1].next
		w := wn.sync
		if end > s.syncMaxEnd[w] {
			s.syncMaxEnd[w] = end
		}
		s.deps[w]--
		if s.deps[w] == 0 {
			s.pushReady(w)
		}
	}
	s.waiterHead[id] = 0
}

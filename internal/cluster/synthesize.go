package cluster

import (
	"lumos/internal/execgraph"
	"lumos/internal/model"
)

// graphBuilder accumulates an execution graph during a synthesis-mode
// simulation. Tasks are appended as the simulator resolves them (per-thread
// and per-stream emission order is time order by construction); edges are
// buffered as pairs and materialized once at the end into a single arena,
// so synthesis does one large allocation instead of one per task.
type graphBuilder struct {
	g *execgraph.Graph

	// lastCPU / lastKern chain program order per CPU thread and FIFO order
	// per stream (-1 = none yet).
	lastCPU  []int32 // indexed by global thread index (rank*2+tid)
	lastKern []int32 // indexed by global stream index

	// pendingDep carries true inter-thread dependencies (signal/wait pairs)
	// to the destination thread's next task.
	pendingDep [][]int32
	// pendingWait carries event-bridge sources to the stream's next kernel.
	pendingWait [][]int32

	// cpuProc / gpuProc cache processor indices (-1 until created).
	cpuProc []int32
	gpuProc []int32

	edges []edgePair
}

type edgePair struct{ from, to int32 }

func newGraphBuilder(world int) *graphBuilder {
	gb := &graphBuilder{
		g:           execgraph.NewGraph(world),
		lastCPU:     make([]int32, world*2),
		lastKern:    make([]int32, world*model.NumStreamKinds),
		pendingDep:  make([][]int32, world*2),
		pendingWait: make([][]int32, world*model.NumStreamKinds),
		cpuProc:     make([]int32, world*2),
		gpuProc:     make([]int32, world*model.NumStreamKinds),
	}
	for i := range gb.lastCPU {
		gb.lastCPU[i] = -1
		gb.cpuProc[i] = -1
	}
	for i := range gb.lastKern {
		gb.lastKern[i] = -1
		gb.gpuProc[i] = -1
	}
	return gb
}

// grow preallocates the task array and edge buffer.
func (gb *graphBuilder) grow(tasks int) {
	gb.g.Grow(tasks)
	gb.edges = make([]edgePair, 0, tasks*2)
}

// edge buffers a fixed dependency; negative or self sources are ignored.
func (gb *graphBuilder) edge(from, to int32) {
	if from < 0 || from == to {
		return
	}
	gb.edges = append(gb.edges, edgePair{from, to})
}

// threadDep schedules an inter-thread dependency onto the destination
// thread's next task.
func (gb *graphBuilder) threadDep(thIdx int, src int32) {
	if src >= 0 {
		gb.pendingDep[thIdx] = append(gb.pendingDep[thIdx], src)
	}
}

// waitEdge schedules an event-bridge dependency onto the stream's next
// kernel.
func (gb *graphBuilder) waitEdge(sIdx int, src int32) {
	for _, have := range gb.pendingWait[sIdx] {
		if have == src {
			return
		}
	}
	gb.pendingWait[sIdx] = append(gb.pendingWait[sIdx], src)
}

// cpu appends a CPU task, chaining it after the thread's previous task and
// consuming any pending inter-thread dependencies.
func (gb *graphBuilder) cpu(thIdx, rank, tid int, t execgraph.Task) int32 {
	t.Kind = execgraph.TaskCPU
	t.Rank = int32(rank)
	t.LaunchTask = -1
	if gb.cpuProc[thIdx] < 0 {
		// TID mirrors the trace convention (thread IDs are 1-based).
		gb.cpuProc[thIdx] = gb.g.EnsureProc(rank, false, tid+1)
	}
	t.Proc = gb.cpuProc[thIdx]
	id := gb.g.AddTask(t)
	gb.edge(gb.lastCPU[thIdx], id)
	for _, d := range gb.pendingDep[thIdx] {
		gb.edge(d, id)
	}
	gb.pendingDep[thIdx] = gb.pendingDep[thIdx][:0]
	gb.lastCPU[thIdx] = id
	return id
}

// kernel appends a resolved GPU task with its launch, intra-stream and
// event-bridge dependencies, and registers collective group membership.
func (gb *graphBuilder) kernel(sIdx, rank int, kind model.StreamKind, e *entry) {
	op := &e.in.Op
	t := execgraph.Task{
		Kind:       execgraph.TaskGPU,
		Rank:       int32(rank),
		Name:       kernelName(op),
		Start:      e.start,
		Dur:        e.end - e.start,
		Class:      op.Class,
		FLOPs:      op.FLOPs,
		Bytes:      op.Bytes,
		Layer:      int32(op.Layer),
		Microbatch: int32(e.mb),
		Pass:       op.Pass,
		LaunchTask: e.launchTask,
	}
	if op.IsComm() {
		t.Comm = op.Comm
		t.CommID = e.in.CommID
		t.CommSeq = e.in.CommSeq
		t.CommBytes = op.CommBytes
	}
	if gb.gpuProc[sIdx] < 0 {
		gb.gpuProc[sIdx] = gb.g.EnsureProc(rank, true, StreamIDs[kind])
	}
	t.Proc = gb.gpuProc[sIdx]
	id := gb.g.AddTask(t)

	gb.edge(e.launchTask, id)
	prev := gb.lastKern[sIdx]
	gb.edge(prev, id)
	for _, src := range gb.pendingWait[sIdx] {
		if src != prev && src != e.launchTask {
			gb.edge(src, id)
		}
	}
	gb.pendingWait[sIdx] = gb.pendingWait[sIdx][:0]
	gb.lastKern[sIdx] = id

	if op.IsComm() && e.in.CommID != 0 {
		key := execgraph.GroupKey{CommID: e.in.CommID, CommSeq: e.in.CommSeq}
		members := gb.g.Groups[key]
		if members == nil && gb.g.Weight != nil && gb.partial(e.in.CommRanks) {
			gb.g.GroupRanks[key] = e.in.CommRanks
		}
		gb.g.Groups[key] = append(members, id)
	}
}

// partial reports whether a collective's rank list includes ranks the
// graph does not simulate.
func (gb *graphBuilder) partial(ranks []int) bool {
	for _, r := range ranks {
		if gb.g.Weight[r] == 0 {
			return true
		}
	}
	return false
}

// finish materializes the buffered edges into per-task Out slices backed by
// one shared arena, fixes in-degree counts, and finalizes collective
// groups.
func (gb *graphBuilder) finish() *execgraph.Graph {
	g := gb.g
	outCount := make([]int32, len(g.Tasks))
	for _, e := range gb.edges {
		outCount[e.from]++
		g.Tasks[e.to].NFixedIn++
	}
	arena := make([]int32, len(gb.edges))
	off := 0
	for i := range g.Tasks {
		c := int(outCount[i])
		g.Tasks[i].Out = arena[off : off : off+c]
		off += c
	}
	for _, e := range gb.edges {
		g.Tasks[e.from].Out = append(g.Tasks[e.from].Out, e.to)
	}
	g.FinalizeGroups()
	return g
}

// Package execgraph builds the paper's task-level execution graph from
// Kineto-style traces (Section 3.3): CPU tasks (operators and CUDA runtime
// events) and GPU tasks (kernels), connected by the four dependency types —
// CPU→CPU (intra- and inter-thread), CPU→GPU (correlation IDs), GPU→CPU
// (synchronization calls), and GPU→GPU (intra-stream order and
// cudaEventRecord/cudaStreamWaitEvent inter-stream pairs) — plus cross-rank
// coupling of collective kernels matched by communicator ID and sequence
// number.
package execgraph

import (
	"fmt"

	"lumos/internal/trace"
)

// TaskKind distinguishes CPU and GPU tasks.
type TaskKind uint8

const (
	TaskCPU TaskKind = iota
	TaskGPU
)

// SyncKind marks CPU tasks that block on GPU progress.
type SyncKind uint8

const (
	SyncNone SyncKind = iota
	// SyncStream is cudaStreamSynchronize: waits for one stream.
	SyncStream
	// SyncDevice is cudaDeviceSynchronize: waits for all streams.
	SyncDevice
)

// Task is one node of the execution graph.
type Task struct {
	ID   int32
	Kind TaskKind
	Rank int32
	// Proc is the processor index: a CPU thread or a CUDA stream.
	Proc int32

	Name string
	// Start is the recorded start time; Dur the recorded duration.
	Start trace.Time
	Dur   trace.Dur

	// Out lists dependent task IDs (fixed dependencies).
	Out []int32
	// NFixedIn counts fixed in-edges, used to seed the simulator.
	NFixedIn int32

	// Sync and SyncStreamID describe GPU→CPU runtime dependencies; they are
	// resolved dynamically during simulation (paper Section 3.5).
	Sync         SyncKind
	SyncStreamID int32

	// Runtime preserves the CUDA API kind of runtime-event tasks so graph
	// manipulation can reproduce dependency patterns.
	Runtime   trace.RuntimeKind
	CUDAEvent int64

	// LaunchTask is the CPU task that enqueued this kernel (-1 if unknown);
	// the simulator uses it to decide which kernels are "enqueued so far"
	// when resolving synchronization.
	LaunchTask int32

	// Kernel metadata (GPU tasks).
	Class     trace.KernelClass
	Comm      trace.CommKind
	CommID    int64
	CommSeq   int64
	CommBytes int64
	// GroupDur is the intrinsic collective duration (the group's minimum
	// recorded duration — the last-arriving rank's kernel time, free of
	// waiting).
	GroupDur trace.Dur
	FLOPs    int64
	Bytes    int64

	// Workload annotations.
	Layer      int32
	Microbatch int32
	Pass       trace.PassKind
}

// End returns the recorded end time.
func (t *Task) End() trace.Time { return t.Start + t.Dur }

// IsComm reports whether the task is a communication kernel.
func (t *Task) IsComm() bool { return t.Kind == TaskGPU && t.Class == trace.KCComm }

// Proc is an execution resource: one CPU thread or one CUDA stream.
type Proc struct {
	Rank int
	// IsGPU is true for CUDA streams.
	IsGPU bool
	// TID is the CPU thread ID or CUDA stream ID from the trace.
	TID int
}

// GroupKey identifies one collective operation instance across ranks.
type GroupKey struct {
	CommID, CommSeq int64
}

// Graph is the multi-rank execution graph.
//
// A graph synthesized under merged price classes (cluster.Synthesize)
// holds tasks for representative ranks only: one DP replica per class.
// Weight then gives each rank's class size, the number of world ranks its
// timeline stands for, and 0 for a rank that was not simulated. Everything
// that sums over ranks (breakdowns, library hit/miss counts, repriced
// group counts) weights each simulated rank by it, so its answers equal a
// full synthesis's. Graphs built from traces, and full syntheses, simulate
// every rank and leave Weight nil.
type Graph struct {
	Tasks []Task
	Procs []Proc
	// Groups maps a collective instance to its member task IDs (one per
	// participating rank present in the graph).
	Groups map[GroupKey][]int32
	// GroupRanks holds the full rank list of each collective instance
	// some of whose ranks the graph does not simulate, so it can be priced
	// as the world runs it; nil when every member is present.
	GroupRanks map[GroupKey][]int
	// NumRanks is the world size, simulated or not.
	NumRanks int
	// Weight is each rank's class size under merged price classes (see
	// Graph), indexed by rank; nil means every rank is simulated and
	// weighs 1.
	Weight []int32

	// procOf maps (rank, isGPU, tid) to processor index during/after build.
	procIndex map[procKey]int32
}

type procKey struct {
	rank int
	gpu  bool
	tid  int
}

// NewGraph returns an empty graph for world size ranks.
func NewGraph(ranks int) *Graph {
	return &Graph{
		Groups:    map[GroupKey][]int32{},
		NumRanks:  ranks,
		procIndex: map[procKey]int32{},
	}
}

// proc returns (creating if needed) the processor index.
func (g *Graph) proc(rank int, gpu bool, tid int) int32 {
	k := procKey{rank, gpu, tid}
	if idx, ok := g.procIndex[k]; ok {
		return idx
	}
	idx := int32(len(g.Procs))
	g.Procs = append(g.Procs, Proc{Rank: rank, IsGPU: gpu, TID: tid})
	g.procIndex[k] = idx
	return idx
}

// addTask appends a task and returns its ID.
func (g *Graph) addTask(t Task) int32 {
	t.ID = int32(len(g.Tasks))
	g.Tasks = append(g.Tasks, t)
	return t.ID
}

// AddTask appends a task, assigns its ID, and returns it. It is the
// construction primitive for direct graph synthesis (generators that emit a
// graph without going through a trace).
func (g *Graph) AddTask(t Task) int32 { return g.addTask(t) }

// EnsureProc returns the processor index for (rank, gpu, tid), creating the
// processor if it does not exist yet.
func (g *Graph) EnsureProc(rank int, gpu bool, tid int) int32 { return g.proc(rank, gpu, tid) }

// Grow preallocates capacity for n additional tasks.
func (g *Graph) Grow(n int) {
	if cap(g.Tasks)-len(g.Tasks) >= n {
		return
	}
	tasks := make([]Task, len(g.Tasks), len(g.Tasks)+n)
	copy(tasks, g.Tasks)
	g.Tasks = tasks
}

// RankWeight returns how many world ranks rank r's timeline stands for:
// 1 unless the graph was synthesized under merged price classes (see
// Weight).
func (g *Graph) RankWeight(r int) int {
	if g.Weight == nil {
		return 1
	}
	return int(g.Weight[r])
}

// FinalizeGroups computes each collective group's intrinsic duration (the
// minimum member duration — the last-arriving rank's kernel time, free of
// waiting) and drops degenerate single-member groups. A group with one
// member present but more ranks in GroupRanks is a representative of a
// real collective and stays. Builders must call it once after all tasks
// are added.
func (g *Graph) FinalizeGroups() {
	for key, members := range g.Groups {
		if len(members) < 2 && len(g.GroupRanks[key]) < 2 {
			delete(g.Groups, key)
			continue
		}
		minDur := g.Tasks[members[0]].Dur
		for _, id := range members[1:] {
			if d := g.Tasks[id].Dur; d < minDur {
				minDur = d
			}
		}
		for _, id := range members {
			g.Tasks[id].GroupDur = minDur
		}
	}
}

// Duration returns the iteration time the graph's recorded timestamps
// describe: the maximum per-rank extent (the slowest rank bounds the step),
// matching trace.Multi.Duration for the equivalent trace. Single pass over
// the tasks, one scratch allocation.
func (g *Graph) Duration() trace.Dur {
	type span struct {
		start, end trace.Time
		seen       bool
	}
	spans := make([]span, g.NumRanks)
	for i := range g.Tasks {
		t := &g.Tasks[i]
		s := &spans[t.Rank]
		if !s.seen {
			s.start, s.end, s.seen = t.Start, t.End(), true
			continue
		}
		if t.Start < s.start {
			s.start = t.Start
		}
		if e := t.End(); e > s.end {
			s.end = e
		}
	}
	var d trace.Dur
	for r := range spans {
		if spans[r].seen && spans[r].end-spans[r].start > d {
			d = spans[r].end - spans[r].start
		}
	}
	return d
}

// AddEdge inserts a fixed dependency from → to.
func (g *Graph) AddEdge(from, to int32) {
	if from == to {
		return
	}
	g.Tasks[from].Out = append(g.Tasks[from].Out, to)
	g.Tasks[to].NFixedIn++
}

// Stats summarizes the graph for reporting.
type Stats struct {
	Tasks, CPUTasks, GPUTasks int
	Edges                     int
	Groups                    int
	Procs                     int
}

// Stats computes summary counts.
func (g *Graph) Stats() Stats {
	s := Stats{Tasks: len(g.Tasks), Groups: len(g.Groups), Procs: len(g.Procs)}
	for i := range g.Tasks {
		if g.Tasks[i].Kind == TaskCPU {
			s.CPUTasks++
		} else {
			s.GPUTasks++
		}
		s.Edges += len(g.Tasks[i].Out)
	}
	return s
}

// CheckAcyclic verifies the fixed-dependency graph is a DAG via Kahn's
// algorithm; it returns an error naming a task on a cycle otherwise.
// Runtime dependencies (sync, collective coupling) cannot create fixed
// cycles by construction.
func (g *Graph) CheckAcyclic() error {
	indeg := make([]int32, len(g.Tasks))
	for i := range g.Tasks {
		indeg[i] = g.Tasks[i].NFixedIn
	}
	queue := make([]int32, 0, len(g.Tasks))
	for i := range g.Tasks {
		if indeg[i] == 0 {
			queue = append(queue, int32(i))
		}
	}
	seen := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, o := range g.Tasks[id].Out {
			indeg[o]--
			if indeg[o] == 0 {
				queue = append(queue, o)
			}
		}
	}
	if seen != len(g.Tasks) {
		for i := range g.Tasks {
			if indeg[i] > 0 {
				return fmt.Errorf("execgraph: cycle detected involving task %d (%s, rank %d)",
					i, g.Tasks[i].Name, g.Tasks[i].Rank)
			}
		}
	}
	return nil
}

// Validate checks graph invariants: edge targets in range, in-degree counts
// consistent, group members are comm kernels, and acyclicity.
func (g *Graph) Validate() error {
	n := int32(len(g.Tasks))
	indeg := make([]int32, n)
	for i := range g.Tasks {
		for _, o := range g.Tasks[i].Out {
			if o < 0 || o >= n {
				return fmt.Errorf("execgraph: task %d has out-of-range edge %d", i, o)
			}
			indeg[o]++
		}
	}
	for i := range g.Tasks {
		if indeg[i] != g.Tasks[i].NFixedIn {
			return fmt.Errorf("execgraph: task %d NFixedIn=%d but %d in-edges found",
				i, g.Tasks[i].NFixedIn, indeg[i])
		}
	}
	for key, members := range g.Groups {
		for _, id := range members {
			if id < 0 || id >= n {
				return fmt.Errorf("execgraph: group %v has out-of-range member %d", key, id)
			}
			if !g.Tasks[id].IsComm() {
				return fmt.Errorf("execgraph: group %v member %d is not a comm kernel", key, id)
			}
		}
	}
	return g.CheckAcyclic()
}

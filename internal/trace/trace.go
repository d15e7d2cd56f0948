// Package trace defines the Kineto-style profiling trace model used
// throughout Lumos: timestamped CPU operator, CUDA runtime, and GPU kernel
// events, in a form losslessly convertible to the Chrome trace-event JSON
// that PyTorch Kineto emits.
//
// Times are int64 nanoseconds from an arbitrary per-run epoch. Kineto's JSON
// uses fractional microseconds; the JSON layer converts.
package trace

import (
	"fmt"
	"sort"
)

// Time is a point in time, in nanoseconds since the trace epoch.
type Time = int64

// Dur is a duration in nanoseconds.
type Dur = int64

// Microsecond and friends express common durations in trace units.
const (
	Nanosecond  Dur = 1
	Microsecond Dur = 1000
	Millisecond Dur = 1000 * 1000
	Second      Dur = 1000 * 1000 * 1000
)

// Category classifies an event the way Kineto's "cat" field does.
type Category uint8

const (
	// CatCPUOp is a framework-level CPU operator (PyTorch aten op, module
	// annotation, optimizer step, ...).
	CatCPUOp Category = iota
	// CatCUDARuntime is a CUDA runtime API call made on a CPU thread
	// (cudaLaunchKernel, cudaEventRecord, cudaStreamWaitEvent,
	// cudaStreamSynchronize, cudaDeviceSynchronize, cudaMemcpyAsync, ...).
	CatCUDARuntime
	// CatKernel is a GPU kernel execution on a CUDA stream.
	CatKernel
	// CatMemcpy is a GPU-side async memory copy.
	CatMemcpy
	// CatUserAnnotation is a user/profiler annotation span (e.g. iteration
	// markers inserted by the profiler's step() hook).
	CatUserAnnotation
)

var catNames = [...]string{"cpu_op", "cuda_runtime", "kernel", "gpu_memcpy", "user_annotation"}

// String returns the Kineto category string.
func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return fmt.Sprintf("cat(%d)", uint8(c))
}

// ParseCategory is the inverse of Category.String.
func ParseCategory(s string) (Category, error) {
	for i, n := range catNames {
		if n == s {
			return Category(i), nil
		}
	}
	return 0, fmt.Errorf("trace: unknown category %q", s)
}

// RuntimeKind identifies which CUDA runtime API a CatCUDARuntime event is.
type RuntimeKind uint8

const (
	RuntimeNone RuntimeKind = iota
	RuntimeLaunchKernel
	RuntimeMemcpyAsync
	RuntimeMemsetAsync
	RuntimeEventRecord
	RuntimeStreamWaitEvent
	RuntimeEventSynchronize
	RuntimeStreamSynchronize
	RuntimeDeviceSynchronize
)

var runtimeNames = [...]string{
	"", "cudaLaunchKernel", "cudaMemcpyAsync", "cudaMemsetAsync",
	"cudaEventRecord", "cudaStreamWaitEvent", "cudaEventSynchronize",
	"cudaStreamSynchronize", "cudaDeviceSynchronize",
}

// String returns the CUDA API name.
func (k RuntimeKind) String() string {
	if int(k) < len(runtimeNames) {
		return runtimeNames[k]
	}
	return fmt.Sprintf("runtime(%d)", uint8(k))
}

// KernelClass partitions GPU kernels into the families the analysis and
// kernel-model layers care about.
type KernelClass uint8

const (
	KCUnknown     KernelClass = iota
	KCGEMM                    // dense matmul (cublas/cutlass)
	KCAttention               // fused attention (fwd or bwd)
	KCElementwise             // pointwise / activation / residual
	KCNorm                    // layernorm family
	KCSoftmax                 // softmax family
	KCOptimizer               // fused Adam etc.
	KCEmbedding               // embedding lookup / grad scatter
	KCComm                    // NCCL collective or p2p
	KCMemcpyKC                // device copies
)

var kernelClassNames = [...]string{
	"unknown", "gemm", "attention", "elementwise", "norm", "softmax",
	"optimizer", "embedding", "comm", "memcpy",
}

// String names the kernel class.
func (k KernelClass) String() string {
	if int(k) < len(kernelClassNames) {
		return kernelClassNames[k]
	}
	return fmt.Sprintf("class(%d)", uint8(k))
}

// CommKind identifies a communication primitive for KCComm kernels.
type CommKind uint8

const (
	CommNone CommKind = iota
	CommAllReduce
	CommAllGather
	CommReduceScatter
	CommBroadcast
	CommSend
	CommRecv
	CommAllToAll
)

var commNames = [...]string{
	"", "ncclDevKernel_AllReduce", "ncclDevKernel_AllGather",
	"ncclDevKernel_ReduceScatter", "ncclDevKernel_Broadcast",
	"ncclDevKernel_SendRecv_Send", "ncclDevKernel_SendRecv_Recv",
	"ncclDevKernel_AllToAll",
}

// String returns the NCCL-style kernel name prefix.
func (c CommKind) String() string {
	if int(c) < len(commNames) {
		return commNames[c]
	}
	return fmt.Sprintf("comm(%d)", uint8(c))
}

// IsPointToPoint reports whether the primitive is a p2p send/recv rather
// than a group collective.
func (c CommKind) IsPointToPoint() bool { return c == CommSend || c == CommRecv }

// Event is a single trace record. The field set is the union of what Lumos
// needs from Kineto's cpu_op, cuda_runtime and kernel records.
type Event struct {
	Name string
	Cat  Category

	Ts  Time // start timestamp
	Dur Dur  // duration; >= 0

	// PID is the trace process ID. Kineto uses the OS pid; the cluster
	// simulator uses the global rank so multi-rank traces merge cleanly.
	PID int
	// TID is the CPU thread for CPU-side events, or the CUDA stream ID for
	// GPU-side events (Kineto convention).
	TID int

	// Correlation links a cuda_runtime launch/record event with the GPU
	// kernel it caused. 0 means "no correlation".
	Correlation int64

	// Stream is the CUDA stream of a kernel event, or the target stream of
	// a cudaStreamWaitEvent / stream-sync runtime event. -1 when absent.
	Stream int

	// Runtime is the API kind for CatCUDARuntime events.
	Runtime RuntimeKind

	// CUDAEvent is the CUDA event handle for cudaEventRecord /
	// cudaStreamWaitEvent pairs. 0 when absent.
	CUDAEvent int64

	// Kernel metadata (CatKernel only).
	Class KernelClass
	Comm  CommKind
	// CommID identifies the communicator (process group); kernels of the
	// same collective share (CommID, CommSeq) across ranks.
	CommID int64
	// CommSeq is the per-communicator operation sequence number.
	CommSeq int64
	// CommBytes is the payload size of the collective/p2p on this rank.
	CommBytes int64
	// PeerRank is the remote rank for p2p send/recv (-1 otherwise).
	PeerRank int

	// Workload annotations, carried in trace args. PyTorch exposes the
	// equivalent through module-hierarchy recording and NVTX ranges; the
	// cluster simulator emits them directly.
	Layer      int // transformer layer index, -1 if not layer-scoped
	Microbatch int // microbatch index, -1 if not microbatch-scoped
	Pass       PassKind

	// FLOPs/Bytes describe the kernel's work for the fitted kernel model.
	FLOPs int64
	Bytes int64
}

// PassKind tags which phase of the training step an event belongs to.
type PassKind uint8

const (
	PassNone PassKind = iota
	PassForward
	PassBackward
	PassOptimizer
)

var passNames = [...]string{"", "forward", "backward", "optimizer"}

// String names the pass.
func (p PassKind) String() string {
	if int(p) < len(passNames) {
		return passNames[p]
	}
	return fmt.Sprintf("pass(%d)", uint8(p))
}

// End returns the event's end timestamp.
func (e *Event) End() Time { return e.Ts + e.Dur }

// IsCPU reports whether the event executes on a CPU thread.
func (e *Event) IsCPU() bool {
	return e.Cat == CatCPUOp || e.Cat == CatCUDARuntime || e.Cat == CatUserAnnotation
}

// IsGPU reports whether the event executes on a CUDA stream.
func (e *Event) IsGPU() bool { return e.Cat == CatKernel || e.Cat == CatMemcpy }

// IsComm reports whether the event is a communication kernel.
func (e *Event) IsComm() bool { return e.Cat == CatKernel && e.Class == KCComm }

// Trace is one rank's profiling trace for one (or more) iterations.
type Trace struct {
	// Rank is the global rank the trace was collected on.
	Rank int
	// Events in no particular order until Sort is called.
	Events []Event
	// Meta carries free-form trace metadata (model name, config, ...).
	Meta map[string]string
}

// New returns an empty trace for the given rank.
func New(rank int) *Trace {
	return &Trace{Rank: rank, Meta: map[string]string{}}
}

// Add appends an event.
func (t *Trace) Add(e Event) { t.Events = append(t.Events, e) }

// Sort orders events by (Ts, Dur descending, Name) so enclosing spans come
// before enclosed ones, matching chrome-trace viewer expectations.
func (t *Trace) Sort() {
	sort.SliceStable(t.Events, func(i, j int) bool {
		a, b := &t.Events[i], &t.Events[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Dur != b.Dur {
			return a.Dur > b.Dur
		}
		return a.Name < b.Name
	})
}

// Span returns the [min Ts, max End) extent of the trace. ok is false for an
// empty trace.
func (t *Trace) Span() (start, end Time, ok bool) {
	if len(t.Events) == 0 {
		return 0, 0, false
	}
	start, end = t.Events[0].Ts, t.Events[0].End()
	for i := range t.Events {
		e := &t.Events[i]
		if e.Ts < start {
			start = e.Ts
		}
		if e.End() > end {
			end = e.End()
		}
	}
	return start, end, true
}

// Duration returns the total wall-clock extent of the trace.
func (t *Trace) Duration() Dur {
	s, e, ok := t.Span()
	if !ok {
		return 0
	}
	return e - s
}

// Threads returns the sorted set of CPU thread IDs with at least one
// CPU event.
func (t *Trace) Threads() []int {
	set := map[int]bool{}
	for i := range t.Events {
		if t.Events[i].IsCPU() {
			set[t.Events[i].TID] = true
		}
	}
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// Multi is a set of per-rank traces from one distributed run.
type Multi struct {
	Ranks []*Trace
}

// NewMulti allocates n empty per-rank traces.
func NewMulti(n int) *Multi {
	m := &Multi{Ranks: make([]*Trace, n)}
	for i := range m.Ranks {
		m.Ranks[i] = New(i)
	}
	return m
}

// NumRanks returns the number of ranks.
func (m *Multi) NumRanks() int { return len(m.Ranks) }

// Events returns the total event count across ranks.
func (m *Multi) Events() int {
	n := 0
	for _, t := range m.Ranks {
		n += len(t.Events)
	}
	return n
}

// Duration returns the maximum per-rank duration (iteration time of the
// slowest rank).
func (m *Multi) Duration() Dur {
	var d Dur
	for _, t := range m.Ranks {
		if td := t.Duration(); td > d {
			d = td
		}
	}
	return d
}

// Validate checks structural invariants shared by collected and simulated
// traces: non-negative durations, kernels have streams, runtime launches
// have correlations, and CPU/GPU placement fields are consistent.
func (t *Trace) Validate() error {
	for i := range t.Events {
		e := &t.Events[i]
		if e.Dur < 0 {
			return fmt.Errorf("trace: event %d (%s) has negative duration %d", i, e.Name, e.Dur)
		}
		switch {
		case e.Cat == CatKernel || e.Cat == CatMemcpy:
			if e.TID < 0 {
				return fmt.Errorf("trace: kernel %q missing stream id", e.Name)
			}
			if e.Correlation == 0 {
				return fmt.Errorf("trace: kernel %q missing correlation id", e.Name)
			}
		case e.Cat == CatCUDARuntime:
			if e.Runtime == RuntimeLaunchKernel && e.Correlation == 0 {
				return fmt.Errorf("trace: launch %q missing correlation id", e.Name)
			}
		}
	}
	return nil
}

// Package cluster is the ground-truth substrate: a discrete-event simulator
// of a multi-rank GPU training cluster that stands in for the paper's
// 512×H100 production testbed. It executes the per-rank programs built by
// the parallel package with faithful CUDA semantics — CPU threads running
// ahead of the device, in-order stream queues, cudaEvent record/wait
// bridges between streams, blocking stream/device synchronization, and
// NCCL-style collective rendezvous that couples ranks — and emits
// Kineto-style traces per rank.
//
// Ground truth deliberately includes effects the trace-driven replayer does
// not model: per-kernel log-normal jitter, per-rank clock-speed skew, and a
// contention penalty when compute and communication kernels overlap. The
// "profiled" and "actual" iterations of every experiment are two runs with
// different seeds, so replay error is honest.
package cluster

import (
	"fmt"

	"lumos/internal/execgraph"
	"lumos/internal/kernelmodel"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/rng"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// StreamIDs maps logical stream kinds to the CUDA stream IDs emitted in
// traces (the numbering mimics what NCCL/PyTorch produce in practice).
var StreamIDs = [model.NumStreamKinds]int{7, 20, 24, 28, 32}

// SimConfig tunes the ground-truth simulator.
type SimConfig struct {
	// Fabric is the interconnect model: the two-tier H100 testbed
	// (topology.H100Cluster) or any other hierarchy (NVLink domains,
	// leaf/spine).
	Fabric topology.Fabric
	// Oracle prices kernels. If nil, a fabric-matched H100 oracle is built
	// at Run/Synthesize time, so setting Fabric alone reprices collectives
	// consistently. Graph manipulation injects a trace-calibrated predictor
	// here to turn the simulator into the paper's "new execution graph"
	// generator.
	Oracle kernelmodel.Predictor
	// Seed drives all stochastic draws. Two runs with different seeds are
	// two "iterations" of the same training job.
	Seed uint64

	// ComputeJitterSigma / CommJitterSigma / CPUJitterSigma are log-normal
	// sigmas for kernel, collective and CPU-span durations.
	ComputeJitterSigma float64
	CommJitterSigma    float64
	CPUJitterSigma     float64
	// RankSkewSigma is a per-rank multiplicative clock skew.
	RankSkewSigma float64

	// OverlapComputeSlowdown stretches a compute kernel that starts while a
	// communication kernel is running on the same GPU; OverlapCommSlowdown
	// is the converse. Both are >= 1.
	OverlapComputeSlowdown float64
	OverlapCommSlowdown    float64

	// CPU-side cost constants (ns).
	OpDispatch    trace.Dur // aten op pre-launch work
	LaunchDur     trace.Dur // cudaLaunchKernel span
	OpEpilogue    trace.Dur // aten op post-launch work
	RecordDur     trace.Dur // cudaEventRecord span
	WaitEventDur  trace.Dur // cudaStreamWaitEvent span
	SyncMinDur    trace.Dur // minimum span of a sync call
	LaunchLatency trace.Dur // device-side delay from launch end to earliest kernel start

	// LaunchQueueDepth bounds how many enqueued-but-unstarted kernels a
	// rank may have before cudaLaunchKernel blocks, mirroring the CUDA
	// driver's launch-queue backpressure. This is what bounds CPU run-ahead
	// in real PyTorch executions. <= 0 disables backpressure.
	LaunchQueueDepth int
}

// DefaultSimConfig returns production-like constants for a cluster of the
// given size.
func DefaultSimConfig(numGPUs int, seed uint64) SimConfig {
	c := topology.H100Cluster(numGPUs)
	return SimConfig{
		Fabric: c,
		// Oracle stays nil: newSim builds one matched to the (possibly
		// caller-overridden) Fabric.
		Seed:                   seed,
		ComputeJitterSigma:     0.025,
		CommJitterSigma:        0.045,
		CPUJitterSigma:         0.08,
		RankSkewSigma:          0.004,
		OverlapComputeSlowdown: 1.05,
		OverlapCommSlowdown:    1.14,
		OpDispatch:             3 * trace.Microsecond,
		LaunchDur:              4500,
		OpEpilogue:             800,
		RecordDur:              1300,
		WaitEventDur:           1100,
		SyncMinDur:             1500,
		LaunchLatency:          1800,
		LaunchQueueDepth:       1024,
	}
}

// entryKind enumerates stream-queue entries.
type entryKind uint8

const (
	eKernel    entryKind = iota
	eRecord              // cudaEventRecord marker
	eWaitEvent           // cudaStreamWaitEvent barrier
	eMarker              // sync marker for stream/device synchronize
)

// entry is one stream-queue element.
type entry struct {
	kind entryKind
	// in is the launching instruction of an eKernel entry (its op and comm
	// metadata); programs are immutable during a simulation, so entries
	// point at it rather than copy it. Nil for other kinds.
	in       *parallel.Instr
	corr     int64
	event    int64 // event handle for eRecord / eWaitEvent
	enqueueT trace.Time
	mb       int

	resolved bool
	// arrived guards against double-registration with a collective or an
	// event waiter list when a stalled stream is re-queued.
	arrived    bool
	start, end trace.Time

	// markerThread/markerIdx identify the blocked thread for eMarker.
	markerThread int

	// launchTask is the CPU task that performed the launch (graph-synthesis
	// mode only; -1 otherwise).
	launchTask int32
}

// streamState is one CUDA stream's FIFO queue.
type streamState struct {
	rank     int
	kind     model.StreamKind
	entries  []entry
	head     int
	frontier trace.Time

	lastKernStart, lastKernEnd trace.Time
	lastKernComm               bool
	lastKernValid              bool

	queued bool // in worklist
}

// eventState is one CUDA event handle.
type eventState struct {
	resolved bool
	time     trace.Time
	// waiting streams re-queued on resolution
	waiters []int // global stream indices
	// snap is the kernel task the event snapshot resolves to in
	// graph-synthesis mode (-1 = none).
	snap int32
}

// signalState is one cross-thread signal.
type signalState struct {
	set     bool
	time    trace.Time
	waiters []int // global thread indices
	// lastTask is the signaling thread's most recent CPU task in
	// graph-synthesis mode (-1 = none), the true inter-thread dependency the
	// trace-side gap heuristic approximates.
	lastTask int32
}

type blockKind uint8

const (
	blockNone blockKind = iota
	blockSignal
	blockMarkers
	blockQueue
)

// threadState is one CPU thread's execution state.
type threadState struct {
	rank, tid int
	instrs    []parallel.Instr
	pc        int
	t         trace.Time

	blocked        blockKind
	waitSignal     int64
	pendingMarkers int
	markerMax      trace.Time
	syncStart      trace.Time
	syncName       string
	syncStream     int // stream ID for the runtime event, -1 for device sync
	syncMB         int

	queued bool
}

// collKey identifies a collective operation instance.
type collKey struct {
	id, seq int64
}

// arrival is one participant reaching a collective.
type arrival struct {
	rank       int
	streamIdx  int // global stream index
	entryIdx   int
	localReady trace.Time
}

// collState tracks a rendezvous in progress.
type collState struct {
	expected int
	arrivals []arrival
}

// sim is the whole-cluster simulation state.
type sim struct {
	cfg      SimConfig
	parallel parallel.Config

	threads []*threadState // len = ranks*2
	streams []*streamState // len = ranks*NumStreamKinds
	events  []map[int64]*eventState
	signals []map[int64]*signalState
	colls   map[collKey]*collState

	traces   *trace.Multi
	rngs     []*rng.Source // per rank
	collRNG  *rng.Source
	rankSkew []float64
	nextCorr []int64

	work     []int // worklist of encoded items: thread = idx*2, stream = idx*2+1
	oracle   kernelmodel.Predictor
	numRanks int

	// outstanding counts enqueued-but-unstarted kernels per rank;
	// queueWaiters holds threads blocked on launch-queue backpressure.
	outstanding  []int
	queueWaiters [][]int

	// gb, when non-nil, switches the simulator into graph-synthesis mode:
	// instead of materializing trace events it emits execution-graph tasks
	// and dependencies directly. All stochastic draws happen at the same
	// points in both modes, so the two emit identical timings.
	gb *graphBuilder

	// weight is each rank's price-class size under merged classes (0 for
	// a rank another replica of its class stands for), nil when every
	// rank is simulated. counting is the oracle's booking view, nil unless
	// weight is set and the oracle books lookups.
	weight   []int32
	counting countingOracle
}

// simulated reports whether rank r runs in this simulation.
func (s *sim) simulated(r int) bool { return s.weight == nil || s.weight[r] > 0 }

// present counts the ranks of a collective's rank list that run in this
// simulation: the members its rendezvous waits for.
func (s *sim) present(ranks []int) int {
	if s.weight == nil {
		return len(ranks)
	}
	n := 0
	for _, r := range ranks {
		if s.weight[r] > 0 {
			n++
		}
	}
	return n
}

func (s *sim) streamIdx(rank int, kind model.StreamKind) int {
	return rank*model.NumStreamKinds + int(kind)
}

func (s *sim) threadIdx(rank, tid int) int { return rank*2 + tid }

func (s *sim) pushThread(idx int) {
	th := s.threads[idx]
	if !th.queued {
		th.queued = true
		s.work = append(s.work, idx*2)
	}
}

func (s *sim) pushStream(idx int) {
	st := s.streams[idx]
	if !st.queued {
		st.queued = true
		s.work = append(s.work, idx*2+1)
	}
}

// Run simulates one training iteration of the deployment and returns the
// per-rank traces.
func Run(cfg parallel.Config, simCfg SimConfig) (*trace.Multi, error) {
	s, err := newSim(cfg, simCfg, false, nil)
	if err != nil {
		return nil, err
	}
	if err := s.simulate(); err != nil {
		return nil, err
	}

	// Close out per-rank iteration annotations and sort.
	for r := 0; r < s.numRanks; r++ {
		tr := s.traces.Ranks[r]
		start, end, ok := tr.Span()
		if ok {
			tr.Add(trace.Event{
				Name: "ProfilerStep#1", Cat: trace.CatUserAnnotation,
				Ts: start, Dur: end - start, PID: r, TID: 1,
				Stream: -1, PeerRank: -1, Layer: -1, Microbatch: -1,
			})
		}
		tr.Sort()
	}
	return s.traces, nil
}

// Synthesize simulates one training iteration exactly like Run but emits a
// task-level execution graph directly, skipping the trace-materialize-then-
// reparse round trip. The graph carries the same timings Run's trace would
// (identical stochastic draw order), with dependency structure taken from
// the simulator's own ground truth: CPU program order, launch→kernel edges,
// stream FIFO order, cudaEventRecord/cudaStreamWaitEvent bridges, true
// inter-thread signal edges, sync-task metadata and cross-rank collective
// groups. trace.Multi remains the ingestion format for real profiles;
// predicted deployments use this path.
//
// classes partitions the DP replicas into price classes (nil: one class
// per replica, the full synthesis). Only each class's representative
// replica is simulated. A collective keeps its full rank list for pricing,
// and its rendezvous completes when the members present have arrived:
// under a deterministic simulator a class's replicas run identical
// timelines, so the representatives arrive exactly when the whole world
// would. The graph's Weight records each simulated rank's class size, and
// an oracle that books its lookups (manip.Predictor) books each priced
// kernel once per world kernel it stands for. Jitter, skew and contention
// make replicas differ, so a merged class under such a SimConfig is an
// error.
func Synthesize(cfg parallel.Config, simCfg SimConfig, classes parallel.Classes) (*execgraph.Graph, error) {
	if classes.Merged() && !simCfg.deterministic() {
		return nil, fmt.Errorf("cluster: merged price classes need a deterministic simulator (no jitter, skew or contention)")
	}
	s, err := newSim(cfg, simCfg, true, classes)
	if err != nil {
		return nil, err
	}
	if err := s.simulate(); err != nil {
		return nil, err
	}
	return s.gb.finish(), nil
}

// deterministic reports whether the simulator draws nothing at random and
// couples no streams by contention, so equal inputs give equal timelines.
func (c SimConfig) deterministic() bool {
	return c.ComputeJitterSigma == 0 && c.CommJitterSigma == 0 && c.CPUJitterSigma == 0 &&
		c.RankSkewSigma == 0 && c.OverlapComputeSlowdown == 1 && c.OverlapCommSlowdown == 1
}

// countingOracle is an oracle that books its lookups (manip.Predictor
// counts library hits and misses). Under merged price classes one priced
// kernel stands for n identical world kernels and is booked n times, so
// the counts equal a full synthesis's. Under merged classes the simulator
// prices through these methods instead of Compute and Comm, so a wrapper
// that embeds a Predictor to override its prices must override them too.
type countingOracle interface {
	ComputeN(class trace.KernelClass, flops, bytes int64, n int) trace.Dur
	CommN(kind trace.CommKind, bytes int64, ranks []int, n int) trace.Dur
}

// newSim builds the whole-cluster simulation state. With synthesize set it
// emits an execution graph instead of traces, simulating the ranks of each
// price class's representative replica.
func newSim(cfg parallel.Config, simCfg SimConfig, synthesize bool, classes parallel.Classes) (*sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	world := cfg.Map.WorldSize()
	if simCfg.Fabric == nil {
		return nil, fmt.Errorf("cluster: no fabric configured")
	}
	if err := simCfg.Fabric.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if simCfg.Fabric.Capacity() < world {
		return nil, fmt.Errorf("cluster: %d GPUs configured but deployment needs %d", simCfg.Fabric.Capacity(), world)
	}
	oracle := simCfg.Oracle
	if oracle == nil {
		oracle = kernelmodel.NewOracleFabric(simCfg.Fabric)
	}
	progs, err := parallel.BuildPrograms(cfg, classes)
	if err != nil {
		return nil, err
	}

	s := &sim{
		cfg:      simCfg,
		parallel: cfg,
		colls:    map[collKey]*collState{},
		oracle:   oracle,
		numRanks: world,
	}
	if synthesize {
		s.gb = newGraphBuilder(world)
		if classes.Merged() {
			s.weight = make([]int32, world)
			block := cfg.Map.TP * cfg.Map.PP
			for r := range s.weight {
				s.weight[r] = int32(classes.Size(r / block))
			}
			s.gb.g.Weight = s.weight
			s.gb.g.GroupRanks = map[execgraph.GroupKey][]int{}
			s.counting, _ = oracle.(countingOracle)
		}
	} else {
		s.traces = trace.NewMulti(world)
	}
	s.outstanding = make([]int, world)
	s.queueWaiters = make([][]int, world)
	root := rng.New(simCfg.Seed)
	s.collRNG = root.Fork(0xC011EC71)
	s.rngs = make([]*rng.Source, world)
	s.rankSkew = make([]float64, world)
	s.nextCorr = make([]int64, world)
	s.events = make([]map[int64]*eventState, world)
	s.signals = make([]map[int64]*signalState, world)
	s.streams = make([]*streamState, world*model.NumStreamKinds)
	skewRNG := root.Fork(0x5EED5EED)
	for r := 0; r < world; r++ {
		s.rankSkew[r] = skewRNG.LogNormal(simCfg.RankSkewSigma)
		if !s.simulated(r) {
			continue
		}
		s.rngs[r] = root.Fork(uint64(r) + 1)
		s.nextCorr[r] = int64(r)*1_000_000_000 + 1
		s.events[r] = map[int64]*eventState{}
		s.signals[r] = map[int64]*signalState{}
		if s.traces != nil {
			s.traces.Ranks[r].Meta["model"] = cfg.Arch.Name
			s.traces.Ranks[r].Meta["parallelism"] = fmt.Sprintf("%dx%dx%d", cfg.Map.TP, cfg.Map.PP, cfg.Map.DP)
		}
		for k := 0; k < model.NumStreamKinds; k++ {
			s.streams[s.streamIdx(r, model.StreamKind(k))] = &streamState{rank: r, kind: model.StreamKind(k)}
		}
	}

	// Preallocate the trace/graph and stream queues: repeated growth of the
	// large event structs dominates runtime otherwise. A stage's replicas
	// run the same instruction kinds on the same streams, so the sizes are
	// counted once per stage.
	sizes := make([]*queueSizes, cfg.Map.PP)
	totalTasks := 0
	s.threads = make([]*threadState, world*2)
	for r, prog := range progs {
		if prog == nil {
			continue // another replica of its price class is simulated
		}
		qs := sizes[prog.Stage]
		if qs == nil {
			qs = countQueues(prog)
			sizes[prog.Stage] = qs
		}
		totalTasks += qs.tasks
		if s.traces != nil {
			s.traces.Ranks[r].Events = make([]trace.Event, 0, qs.events+1)
		}
		for k := 0; k < model.NumStreamKinds; k++ {
			st := s.streams[s.streamIdx(r, model.StreamKind(k))]
			st.entries = make([]entry, 0, qs.perStream[k])
		}
		for tid := 0; tid < 2; tid++ {
			s.threads[s.threadIdx(r, tid)] = &threadState{
				rank: r, tid: tid, instrs: prog.Threads[tid],
			}
			s.pushThread(s.threadIdx(r, tid))
		}
	}
	if s.gb != nil {
		s.gb.grow(totalTasks)
	}
	return s, nil
}

// queueSizes is what one rank's program emits: trace events, graph tasks
// and stream-queue entries per stream kind.
type queueSizes struct {
	events, tasks int
	perStream     [model.NumStreamKinds]int
}

// countQueues sizes one rank's trace, graph tasks and stream queues from
// its program.
func countQueues(prog *parallel.Program) *queueSizes {
	qs := &queueSizes{}
	for _, instrs := range prog.Threads {
		for i := range instrs {
			in := &instrs[i]
			switch in.Kind {
			case parallel.ILaunch:
				qs.events += 3
				qs.tasks += 2 // launcher op (folded launch) + kernel
				qs.perStream[in.Op.Stream]++
			case parallel.IEventRecord, parallel.IStreamWaitEvent, parallel.IStreamSync:
				qs.events++
				qs.tasks++
				qs.perStream[in.Stream]++
			case parallel.IDeviceSync:
				qs.events++
				qs.tasks++
				for k := range qs.perStream {
					qs.perStream[k]++
				}
			case parallel.ICPUWork:
				qs.events++
				qs.tasks++
			}
		}
	}
	return qs
}

// simulate pumps the fixpoint loop until nothing can advance and checks for
// deadlock.
func (s *sim) simulate() error {
	for len(s.work) > 0 {
		item := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		if item%2 == 0 {
			th := s.threads[item/2]
			th.queued = false
			s.runThread(th)
		} else {
			st := s.streams[item/2]
			st.queued = false
			s.advanceStream(item / 2)
		}
	}
	for _, th := range s.threads {
		if th != nil && th.pc < len(th.instrs) {
			return fmt.Errorf("cluster: deadlock: rank %d thread %d stuck at instruction %d/%d (kind %d)",
				th.rank, th.tid, th.pc, len(th.instrs), th.instrs[th.pc].Kind)
		}
	}
	return nil
}

// cpuDur applies CPU jitter and rank skew to a nominal span.
func (s *sim) cpuDur(rank int, nominal trace.Dur) trace.Dur {
	f := s.rngs[rank].LogNormal(s.cfg.CPUJitterSigma)
	d := trace.Dur(float64(nominal) * f)
	if d < 200 {
		d = 200
	}
	return d
}

// runThread executes instructions until the thread blocks or finishes.
func (s *sim) runThread(th *threadState) {
	if th.blocked != blockNone {
		return
	}
	var tr *trace.Trace
	if s.traces != nil {
		tr = s.traces.Ranks[th.rank]
	}
	for th.pc < len(th.instrs) {
		in := &th.instrs[th.pc]
		switch in.Kind {
		case parallel.ICPUWork:
			d := s.cpuDur(th.rank, in.CPUDur)
			if s.gb != nil {
				s.gb.cpu(s.threadIdx(th.rank, th.tid), th.rank, th.tid, execgraph.Task{
					Name: in.Name, Start: th.t, Dur: d,
					Layer: -1, Microbatch: int32(in.Microbatch),
				})
			} else {
				tr.Add(trace.Event{
					Name: in.Name, Cat: trace.CatCPUOp,
					Ts: th.t, Dur: d, PID: th.rank, TID: th.tid + 1,
					Stream: -1, PeerRank: -1, Layer: -1, Microbatch: in.Microbatch,
				})
			}
			th.t += d

		case parallel.ILaunch:
			if s.cfg.LaunchQueueDepth > 0 && s.outstanding[th.rank] >= s.cfg.LaunchQueueDepth {
				th.blocked = blockQueue
				s.queueWaiters[th.rank] = append(s.queueWaiters[th.rank], s.threadIdx(th.rank, th.tid))
				return // pc unchanged: the launch re-executes on wake
			}
			s.execLaunch(th, in, tr)

		case parallel.IEventRecord:
			d := s.cpuDur(th.rank, s.cfg.RecordDur)
			sIdx := s.streamIdx(th.rank, in.Stream)
			if s.gb != nil {
				s.gb.cpu(s.threadIdx(th.rank, th.tid), th.rank, th.tid, execgraph.Task{
					Name: "cudaEventRecord", Start: th.t, Dur: d,
					Runtime: trace.RuntimeEventRecord, CUDAEvent: in.Event,
					SyncStreamID: int32(StreamIDs[in.Stream]),
					Layer:        -1, Microbatch: int32(in.Microbatch),
				})
			} else {
				tr.Add(trace.Event{
					Name: "cudaEventRecord", Cat: trace.CatCUDARuntime,
					Ts: th.t, Dur: d, PID: th.rank, TID: th.tid + 1,
					Runtime: trace.RuntimeEventRecord, Stream: StreamIDs[in.Stream],
					CUDAEvent: in.Event, PeerRank: -1, Layer: -1, Microbatch: in.Microbatch,
				})
			}
			th.t += d
			st := s.streams[sIdx]
			st.entries = append(st.entries, entry{kind: eRecord, event: in.Event, enqueueT: th.t, mb: in.Microbatch, launchTask: -1})
			s.pushStream(sIdx)

		case parallel.IStreamWaitEvent:
			d := s.cpuDur(th.rank, s.cfg.WaitEventDur)
			sIdx := s.streamIdx(th.rank, in.Stream)
			if s.gb != nil {
				s.gb.cpu(s.threadIdx(th.rank, th.tid), th.rank, th.tid, execgraph.Task{
					Name: "cudaStreamWaitEvent", Start: th.t, Dur: d,
					Runtime: trace.RuntimeStreamWaitEvent, CUDAEvent: in.Event,
					SyncStreamID: int32(StreamIDs[in.Stream]),
					Layer:        -1, Microbatch: int32(in.Microbatch),
				})
			} else {
				tr.Add(trace.Event{
					Name: "cudaStreamWaitEvent", Cat: trace.CatCUDARuntime,
					Ts: th.t, Dur: d, PID: th.rank, TID: th.tid + 1,
					Runtime: trace.RuntimeStreamWaitEvent, Stream: StreamIDs[in.Stream],
					CUDAEvent: in.Event, PeerRank: -1, Layer: -1, Microbatch: in.Microbatch,
				})
			}
			th.t += d
			st := s.streams[sIdx]
			st.entries = append(st.entries, entry{kind: eWaitEvent, event: in.Event, enqueueT: th.t, mb: in.Microbatch, launchTask: -1})
			s.pushStream(sIdx)

		case parallel.IStreamSync:
			sIdx := s.streamIdx(th.rank, in.Stream)
			st := s.streams[sIdx]
			th.blocked = blockMarkers
			th.pendingMarkers = 1
			th.markerMax = 0
			th.syncStart = th.t
			th.syncName = "cudaStreamSynchronize"
			th.syncStream = StreamIDs[in.Stream]
			th.syncMB = in.Microbatch
			st.entries = append(st.entries, entry{kind: eMarker, enqueueT: th.t, markerThread: s.threadIdx(th.rank, th.tid), mb: in.Microbatch, launchTask: -1})
			s.pushStream(sIdx)
			th.pc++
			return

		case parallel.IDeviceSync:
			th.blocked = blockMarkers
			th.pendingMarkers = 0
			th.markerMax = 0
			th.syncStart = th.t
			th.syncName = "cudaDeviceSynchronize"
			th.syncStream = -1
			th.syncMB = in.Microbatch
			for k := 0; k < model.NumStreamKinds; k++ {
				sIdx := s.streamIdx(th.rank, model.StreamKind(k))
				st := s.streams[sIdx]
				th.pendingMarkers++
				st.entries = append(st.entries, entry{kind: eMarker, enqueueT: th.t, markerThread: s.threadIdx(th.rank, th.tid), mb: in.Microbatch, launchTask: -1})
				s.pushStream(sIdx)
			}
			th.pc++
			return

		case parallel.ISignal:
			sig := s.signal(th.rank, in.Signal)
			sig.set = true
			sig.time = th.t
			if s.gb != nil {
				sig.lastTask = s.gb.lastCPU[s.threadIdx(th.rank, th.tid)]
			}
			for _, w := range sig.waiters {
				wt := s.threads[w]
				if wt.blocked == blockSignal && wt.waitSignal == in.Signal {
					wt.blocked = blockNone
					if sig.time > wt.t {
						wt.t = sig.time
					}
					if s.gb != nil {
						s.gb.threadDep(w, sig.lastTask)
					}
					s.pushThread(w)
				}
			}
			sig.waiters = nil
			th.t += 500

		case parallel.IWaitSignal:
			sig := s.signal(th.rank, in.Signal)
			if sig.set {
				if sig.time > th.t {
					th.t = sig.time
				}
				if s.gb != nil {
					s.gb.threadDep(s.threadIdx(th.rank, th.tid), sig.lastTask)
				}
			} else {
				sig.waiters = append(sig.waiters, s.threadIdx(th.rank, th.tid))
				th.blocked = blockSignal
				th.waitSignal = in.Signal
				th.pc++
				return
			}
		}
		th.pc++
	}
}

func (s *sim) signal(rank int, id int64) *signalState {
	sig := s.signals[rank][id]
	if sig == nil {
		sig = &signalState{lastTask: -1}
		s.signals[rank][id] = sig
	}
	return sig
}

// execLaunch emits the CPU-op + cudaLaunchKernel spans and enqueues the
// kernel on its stream.
func (s *sim) execLaunch(th *threadState, in *parallel.Instr, tr *trace.Trace) {
	op := in.Op
	dispatch := s.cpuDur(th.rank, s.cfg.OpDispatch)
	launch := s.cpuDur(th.rank, s.cfg.LaunchDur)
	epilogue := s.cpuDur(th.rank, s.cfg.OpEpilogue)

	corr := s.nextCorr[th.rank]
	s.nextCorr[th.rank]++

	opStart := th.t
	launchStart := opStart + dispatch
	launchEnd := launchStart + launch
	opEnd := launchEnd + epilogue

	launchTask := int32(-1)
	if s.gb != nil {
		// One CPU task for the whole operator span; the nested
		// cudaLaunchKernel folds into it, exactly as trace-side graph
		// construction does.
		launchTask = s.gb.cpu(s.threadIdx(th.rank, th.tid), th.rank, th.tid, execgraph.Task{
			Name: op.Name, Start: opStart, Dur: opEnd - opStart,
			Layer: int32(op.Layer), Microbatch: int32(in.Microbatch), Pass: op.Pass,
		})
	} else {
		tr.Add(trace.Event{
			Name: op.Name, Cat: trace.CatCPUOp,
			Ts: opStart, Dur: opEnd - opStart, PID: th.rank, TID: th.tid + 1,
			Stream: -1, PeerRank: -1, Layer: op.Layer, Microbatch: in.Microbatch, Pass: op.Pass,
		})
		tr.Add(trace.Event{
			Name: "cudaLaunchKernel", Cat: trace.CatCUDARuntime,
			Ts: launchStart, Dur: launchEnd - launchStart, PID: th.rank, TID: th.tid + 1,
			Runtime: trace.RuntimeLaunchKernel, Correlation: corr, Stream: StreamIDs[op.Stream],
			PeerRank: -1, Layer: op.Layer, Microbatch: in.Microbatch, Pass: op.Pass,
		})
	}

	s.outstanding[th.rank]++
	sIdx := s.streamIdx(th.rank, op.Stream)
	st := s.streams[sIdx]
	st.entries = append(st.entries, entry{
		kind:       eKernel,
		in:         in,
		corr:       corr,
		enqueueT:   launchEnd + s.cfg.LaunchLatency,
		mb:         in.Microbatch,
		launchTask: launchTask,
	})
	s.pushStream(sIdx)

	th.t = opEnd
}

// advanceStream resolves queue entries at the stream head until it stalls.
func (s *sim) advanceStream(idx int) {
	st := s.streams[idx]
	for st.head < len(st.entries) {
		e := &st.entries[st.head]
		if e.resolved {
			st.head++
			continue
		}
		switch e.kind {
		case eRecord:
			t := st.frontier
			if e.enqueueT > t {
				t = e.enqueueT
			}
			ev := s.event(st.rank, e.event)
			ev.resolved = true
			ev.time = t
			if s.gb != nil {
				// Queue order means every kernel enqueued before this record
				// has resolved: the stream's last kernel is the snapshot.
				ev.snap = s.gb.lastKern[idx]
			}
			e.resolved = true
			for _, w := range ev.waiters {
				s.pushStream(w)
			}
			ev.waiters = nil

		case eWaitEvent:
			ev := s.event(st.rank, e.event)
			if !ev.resolved {
				if !e.arrived {
					e.arrived = true
					ev.waiters = append(ev.waiters, idx)
				}
				return
			}
			if ev.time > st.frontier {
				st.frontier = ev.time
			}
			if s.gb != nil && ev.snap >= 0 {
				// The next kernel on this stream depends on the snapshot
				// kernel: the cudaEventRecord → cudaStreamWaitEvent bridge.
				s.gb.waitEdge(idx, ev.snap)
			}
			e.resolved = true

		case eMarker:
			t := st.frontier
			if e.enqueueT > t {
				t = e.enqueueT
			}
			e.resolved = true
			s.markerDone(e.markerThread, t)

		case eKernel:
			ready := st.frontier
			if e.enqueueT > ready {
				ready = e.enqueueT
			}
			if e.in.Op.IsComm() {
				if e.arrived {
					return // already registered; stalled until the group completes
				}
				e.arrived = true
				if !s.arriveCollective(idx, st.head, ready) {
					return
				}
				// Resolved inside completeCollective; the resolved check at
				// the loop top advances past it.
				continue
			}
			s.resolveComputeKernel(st, e, ready)
		}
		st.head++
	}
}

func (s *sim) event(rank int, id int64) *eventState {
	ev := s.events[rank][id]
	if ev == nil {
		ev = &eventState{snap: -1}
		s.events[rank][id] = ev
	}
	return ev
}

// markerDone credits a sync marker to its blocked thread and resumes it
// when all markers resolved, emitting the blocking runtime span.
func (s *sim) markerDone(threadIdx int, t trace.Time) {
	th := s.threads[threadIdx]
	if t > th.markerMax {
		th.markerMax = t
	}
	th.pendingMarkers--
	if th.pendingMarkers > 0 {
		return
	}
	resume := th.markerMax
	minEnd := th.syncStart + s.cpuDur(th.rank, s.cfg.SyncMinDur)
	if resume < minEnd {
		resume = minEnd
	}
	kind := trace.RuntimeStreamSynchronize
	if th.syncStream < 0 {
		kind = trace.RuntimeDeviceSynchronize
	}
	if s.gb != nil {
		t := execgraph.Task{
			Name: th.syncName, Start: th.syncStart, Dur: resume - th.syncStart,
			Runtime: kind, SyncStreamID: int32(th.syncStream),
			Layer: -1, Microbatch: int32(th.syncMB),
			Sync: execgraph.SyncStream,
		}
		if th.syncStream < 0 {
			t.Sync = execgraph.SyncDevice
		}
		s.gb.cpu(threadIdx, th.rank, th.tid, t)
	} else {
		s.traces.Ranks[th.rank].Add(trace.Event{
			Name: th.syncName, Cat: trace.CatCUDARuntime,
			Ts: th.syncStart, Dur: resume - th.syncStart, PID: th.rank, TID: th.tid + 1,
			Runtime: kind, Stream: th.syncStream,
			PeerRank: -1, Layer: -1, Microbatch: th.syncMB,
		})
	}
	th.t = resume
	th.blocked = blockNone
	s.pushThread(threadIdx)
}

// kernelStarted releases one launch-queue slot at the kernel's start time
// and wakes a blocked launcher thread if any.
func (s *sim) kernelStarted(rank int, start trace.Time) {
	if s.cfg.LaunchQueueDepth <= 0 {
		return
	}
	s.outstanding[rank]--
	if len(s.queueWaiters[rank]) == 0 || s.outstanding[rank] >= s.cfg.LaunchQueueDepth {
		return
	}
	w := s.queueWaiters[rank][0]
	s.queueWaiters[rank] = s.queueWaiters[rank][1:]
	th := s.threads[w]
	th.blocked = blockNone
	if start > th.t {
		th.t = start
	}
	s.pushThread(w)
}

// contentionFactor samples cross-stream interference at a kernel's start.
func (s *sim) contentionFactor(rank int, kind model.StreamKind, isComm bool, start trace.Time) float64 {
	for k := 0; k < model.NumStreamKinds; k++ {
		if model.StreamKind(k) == kind {
			continue
		}
		o := s.streams[s.streamIdx(rank, model.StreamKind(k))]
		if !o.lastKernValid || start < o.lastKernStart || start >= o.lastKernEnd {
			continue
		}
		if isComm && !o.lastKernComm {
			return s.cfg.OverlapCommSlowdown
		}
		if !isComm && o.lastKernComm {
			return s.cfg.OverlapComputeSlowdown
		}
	}
	return 1
}

// resolveComputeKernel prices and finalizes a non-collective kernel.
func (s *sim) resolveComputeKernel(st *streamState, e *entry, ready trace.Time) {
	op := &e.in.Op
	var base trace.Dur
	if s.counting != nil {
		base = s.counting.ComputeN(op.Class, op.FLOPs, op.Bytes, int(s.weight[st.rank]))
	} else {
		base = s.oracle.Compute(op.Class, op.FLOPs, op.Bytes)
	}
	f := s.rngs[st.rank].LogNormal(s.cfg.ComputeJitterSigma) * s.rankSkew[st.rank]
	f *= s.contentionFactor(st.rank, st.kind, false, ready)
	dur := trace.Dur(float64(base) * f)
	if dur < 500 {
		dur = 500
	}
	e.start = ready
	e.end = ready + dur
	e.resolved = true
	st.frontier = e.end
	st.lastKernStart, st.lastKernEnd, st.lastKernComm, st.lastKernValid = e.start, e.end, false, true
	s.emitKernel(st.rank, st.kind, e)
	s.kernelStarted(st.rank, e.start)
}

// arriveCollective registers a participant; returns true if the entry is now
// resolved (group complete), false if the stream must stall.
func (s *sim) arriveCollective(streamIdx, entryIdx int, ready trace.Time) bool {
	st := s.streams[streamIdx]
	e := &st.entries[entryIdx]
	key := collKey{e.in.CommID, e.in.CommSeq}
	c := s.colls[key]
	if c == nil {
		c = &collState{expected: s.present(e.in.CommRanks)}
		s.colls[key] = c
	}
	c.arrivals = append(c.arrivals, arrival{rank: st.rank, streamIdx: streamIdx, entryIdx: entryIdx, localReady: ready})
	if len(c.arrivals) < c.expected {
		return false
	}
	s.completeCollective(key, c)
	delete(s.colls, key)
	return true
}

// completeCollective resolves all participants of a rendezvous: every
// kernel spans [its own local ready, shared end].
func (s *sim) completeCollective(key collKey, c *collState) {
	var maxReady trace.Time
	for _, a := range c.arrivals {
		if a.localReady > maxReady {
			maxReady = a.localReady
		}
	}
	first := &s.streams[c.arrivals[0].streamIdx].entries[c.arrivals[0].entryIdx]
	var base trace.Dur
	if s.counting != nil {
		// The present members' class sizes sum to the rank count times
		// the number of world collectives this one stands for: its class
		// size when all members share a replica, 1 for a DP collective.
		n := 0
		for _, a := range c.arrivals {
			n += int(s.weight[a.rank])
		}
		base = s.counting.CommN(first.in.Op.Comm, first.in.Op.CommBytes, first.in.CommRanks, n/len(first.in.CommRanks))
	} else {
		base = s.oracle.Comm(first.in.Op.Comm, first.in.Op.CommBytes, first.in.CommRanks)
	}

	jit := s.collRNG.Fork(uint64(key.id)<<20 ^ uint64(key.seq)).LogNormal(s.cfg.CommJitterSigma)
	f := jit
	slow := 1.0
	for _, a := range c.arrivals {
		st := s.streams[a.streamIdx]
		cf := s.contentionFactor(st.rank, st.kind, true, maxReady)
		if cf > slow {
			slow = cf
		}
	}
	f *= slow
	dur := trace.Dur(float64(base) * f)
	if dur < 1000 {
		dur = 1000
	}
	end := maxReady + dur

	for _, a := range c.arrivals {
		st := s.streams[a.streamIdx]
		e := &st.entries[a.entryIdx]
		e.start = a.localReady
		e.end = end
		e.resolved = true
		st.frontier = end
		st.lastKernStart, st.lastKernEnd, st.lastKernComm, st.lastKernValid = e.start, e.end, true, true
		s.emitKernel(st.rank, st.kind, e)
		s.kernelStarted(st.rank, e.start)
		// Stalled participant streams must be re-queued; re-queuing the
		// actively advancing one is harmless (dedup flag).
		s.pushStream(a.streamIdx)
	}
}

// kernelName maps an op to a realistic device kernel symbol.
func kernelName(op *model.Op) string {
	switch op.Class {
	case trace.KCGEMM:
		return "sm90_xmma_gemm_bf16f32_tn_n"
	case trace.KCAttention:
		if op.Pass == trace.PassBackward {
			return "flash_bwd_kernel"
		}
		return "flash_fwd_kernel"
	case trace.KCNorm:
		return "vectorized_layer_norm_kernel"
	case trace.KCSoftmax:
		return "softmax_warp_forward"
	case trace.KCElementwise:
		return "vectorized_elementwise_kernel"
	case trace.KCOptimizer:
		return "multi_tensor_apply_kernel_adam"
	case trace.KCEmbedding:
		return "indexSelectLargeIndex"
	case trace.KCComm:
		return op.Comm.String()
	}
	return op.Name
}

// emitKernel appends the resolved kernel event to its rank's trace (or, in
// graph-synthesis mode, its GPU task to the graph).
func (s *sim) emitKernel(rank int, kind model.StreamKind, e *entry) {
	if s.gb != nil {
		s.gb.kernel(s.streamIdx(rank, kind), rank, kind, e)
		return
	}
	op := &e.in.Op
	ev := trace.Event{
		Name: kernelName(op), Cat: trace.CatKernel,
		Ts: e.start, Dur: e.end - e.start, PID: rank, TID: StreamIDs[kind],
		Correlation: e.corr, Stream: StreamIDs[kind],
		Class: op.Class, Layer: op.Layer, Microbatch: e.mb, Pass: op.Pass,
		FLOPs: op.FLOPs, Bytes: op.Bytes, PeerRank: -1,
	}
	if op.IsComm() {
		ev.Comm = op.Comm
		ev.CommID = e.in.CommID
		ev.CommSeq = e.in.CommSeq
		ev.CommBytes = op.CommBytes
		ev.PeerRank = e.in.PeerRank
	}
	s.traces.Ranks[rank].Add(ev)
}

package parallel

import (
	"fmt"

	"lumos/internal/model"
	"lumos/internal/schedule"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// Config is a full training deployment: architecture, 3D mapping, and
// execution knobs.
type Config struct {
	Arch model.Arch
	Map  topology.Mapping

	// Microbatches is the number of microbatches per rank per iteration.
	Microbatches int
	// MicrobatchSize is sequences per microbatch.
	MicrobatchSize int
	// Schedule is the pipeline schedule policy.
	Schedule SchedulePolicy
	// VirtualStages is the number of model chunks each rank hosts under the
	// Interleaved schedule (virtual pipeline stages, Narayanan et al.):
	// stage s runs chunks at virtual stages s, s+PP, ..., s+(v-1)·PP. Must
	// be >= 2 when Schedule is Interleaved; ignored by other schedules.
	VirtualStages int
	// BucketBytes is the data-parallel gradient bucket size (Megatron/DDP
	// default is 25 MB).
	BucketBytes int64
	// OptimizerChunks is how many fused-Adam kernels the update is split
	// into.
	OptimizerChunks int
	// SequenceParallel enables Megatron-style sequence parallelism in the
	// tensor-parallel regions (all-gather/reduce-scatter instead of
	// all-reduce, sequence-sharded norms and dropouts).
	SequenceParallel bool
	// SyncAfterRecv inserts a cudaStreamSynchronize after every pipeline
	// receive, modeling Megatron versions that block the host in
	// p2p_communication. Default off: modern stacks order the pipeline
	// purely with CUDA events, which is the regime where inter-stream
	// dependencies matter (and where dPRO-style models fail).
	SyncAfterRecv bool
}

// DefaultConfig returns a Config with paper-like defaults for the given
// architecture and mapping.
func DefaultConfig(arch model.Arch, m topology.Mapping) Config {
	mb := 2 * m.PP
	if mb < 4 {
		mb = 4
	}
	return Config{
		Arch:            arch,
		Map:             m,
		Microbatches:    mb,
		MicrobatchSize:  1,
		Schedule:        OneFOneB,
		BucketBytes:     25 << 20,
		OptimizerChunks: 6,
	}
}

// Validate checks deployment feasibility.
func (c Config) Validate() error {
	if err := c.Arch.Validate(); err != nil {
		return err
	}
	if c.Map.TP < 1 || c.Map.PP < 1 || c.Map.DP < 1 {
		return fmt.Errorf("parallel: invalid mapping %dx%dx%d", c.Map.TP, c.Map.PP, c.Map.DP)
	}
	gen, err := c.generator()
	if err != nil {
		return err
	}
	chunks := gen.Chunks()
	if c.Arch.Layers%(c.Map.PP*chunks) != 0 {
		if chunks == 1 {
			return fmt.Errorf("parallel: layers (%d) not divisible by PP (%d)", c.Arch.Layers, c.Map.PP)
		}
		// A typed schedule error: only the schedule's chunking makes this
		// mapping indivisible, so the planner buckets it as
		// schedule-rejected rather than scope-rejected.
		return fmt.Errorf("parallel: %w: layers (%d) not divisible by PP×chunks (%d×%d)",
			schedule.ErrIncompatible, c.Arch.Layers, c.Map.PP, chunks)
	}
	if c.Arch.Hidden%c.Map.TP != 0 || c.Arch.FFN%c.Map.TP != 0 {
		return fmt.Errorf("parallel: hidden/FFN (%d/%d) not divisible by TP (%d)",
			c.Arch.Hidden, c.Arch.FFN, c.Map.TP)
	}
	if c.Microbatches < 1 || c.MicrobatchSize < 1 {
		return fmt.Errorf("parallel: microbatches/microbatch size must be >= 1")
	}
	if err := gen.Validate(c.Map.PP, c.Microbatches); err != nil {
		return fmt.Errorf("parallel: %w", err)
	}
	return nil
}

// LayersPerStage returns the per-stage layer count (summed over the
// stage's model chunks under interleaved schedules).
func (c Config) LayersPerStage() int { return c.Arch.Layers / c.Map.PP }

// StageLayers returns the global layer index range [lo, hi) of a stage
// under a flat (single-chunk) layout; interleaved stages host
// VirtualChunks disjoint ranges instead (see ChunkLayers).
func (c Config) StageLayers(stage int) (lo, hi int) {
	lps := c.LayersPerStage()
	return stage * lps, (stage + 1) * lps
}

// shape returns the ShapeConfig for op generation.
func (c Config) shape() model.ShapeConfig {
	return model.ShapeConfig{
		TP:               c.Map.TP,
		MicrobatchSize:   c.MicrobatchSize,
		SequenceParallel: c.SequenceParallel,
	}
}

// LocalParams returns the parameter count held by one rank on the given
// pipeline stage (TP-sharded; embedding counted on the first stage, the
// tied output head reuses it on the last so it is not double counted).
func (c Config) LocalParams(stage int) int64 {
	p := int64(c.LayersPerStage()) * c.Arch.LayerParams() / int64(c.Map.TP)
	if stage == 0 {
		p += c.Arch.EmbeddingParams() / int64(c.Map.TP)
	}
	return p
}

// InstrKind enumerates program instructions.
type InstrKind uint8

const (
	// ILaunch launches a GPU kernel (CPU op + cudaLaunchKernel + kernel).
	ILaunch InstrKind = iota
	// IEventRecord records a CUDA event on a stream (cudaEventRecord).
	IEventRecord
	// IStreamWaitEvent makes a stream wait for a recorded event
	// (cudaStreamWaitEvent).
	IStreamWaitEvent
	// IStreamSync blocks the CPU thread until a stream drains
	// (cudaStreamSynchronize).
	IStreamSync
	// IDeviceSync blocks the CPU thread until all streams drain
	// (cudaDeviceSynchronize).
	IDeviceSync
	// ICPUWork is a pure CPU span (dataloader, python overhead).
	ICPUWork
	// ISignal wakes threads blocked in IWaitSignal on the same ID.
	ISignal
	// IWaitSignal blocks the thread until ISignal with the same ID ran.
	IWaitSignal
)

// Instr is one program instruction, executed in order by its CPU thread.
type Instr struct {
	Kind InstrKind

	// Op is the kernel for ILaunch.
	Op model.Op
	// Stream targets IEventRecord / IStreamWaitEvent / IStreamSync and
	// overrides Op.Stream when launching.
	Stream model.StreamKind
	// Event is the CUDA event handle for record/wait pairs.
	Event int64
	// Signal is the cross-thread signal ID.
	Signal int64
	// CPUDur is the span length for ICPUWork.
	CPUDur trace.Dur
	// Name labels ICPUWork spans.
	Name string
	// Microbatch tags the slot's microbatch for trace annotation (-1 when
	// not slot-scoped).
	Microbatch int

	// Comm metadata for ILaunch of communication kernels.
	CommID    int64
	CommSeq   int64
	CommRanks []int
	PeerRank  int
}

// Program is one rank's instruction streams, one per CPU thread.
// Thread 0 is the main (forward/optimizer) thread; thread 1 is the autograd
// (backward) thread, matching PyTorch's execution structure.
type Program struct {
	Rank int
	// Stage is the rank's pipeline stage. Every rank of a stage runs the
	// same instruction kinds on the same streams; only communicator fields
	// differ (see BuildPrograms).
	Stage   int
	Threads [][]Instr
}

// NumInstrs returns the total instruction count.
func (p *Program) NumInstrs() int {
	n := 0
	for _, t := range p.Threads {
		n += len(t)
	}
	return n
}

const (
	threadMain     = 0
	threadAutograd = 1
)

// builder accumulates a rank's program.
type builder struct {
	cfg    Config
	rank   int
	stage  int
	dp, tp int
	// curChunk is the model chunk of the slot being emitted; pipeline p2p
	// metadata is keyed by the virtual stage curChunk*PP + stage.
	curChunk int

	threads   [][]Instr
	nextEvent int64
	nextSig   int64
	// sizing, when set, makes emit and launch only count each thread's
	// instructions into sizes (see buildProgram).
	sizing bool
	sizes  [2]int

	// per-communicator sequence counters; p2p channels use payload-keyed
	// sequence numbers instead (see ppSeq).
	seq map[int64]int64

	tpRanks []int
	dpRanks []int

	shape model.ShapeConfig
	// ops is the stage's per-layer op memo, shared by the sizing and
	// emitting passes.
	ops *layerOps
}

// layerOps memoizes one stage build's per-layer op lists: a layer's
// kernels depend on the shape and the layer index, not on the microbatch,
// so each list is generated once per stage instead of once per slot.
// Indexed by global layer; nil until first use.
type layerOps struct {
	fwd, bwd, bwdIn, bwdW [][]model.Op
}

func newLayerOps(layers int) *layerOps {
	return &layerOps{
		fwd:   make([][]model.Op, layers),
		bwd:   make([][]model.Op, layers),
		bwdIn: make([][]model.Op, layers),
		bwdW:  make([][]model.Op, layers),
	}
}

// layer returns layer's op list from cache, generating it on first use.
func (b *builder) layer(cache [][]model.Op, gen func(model.Arch, model.ShapeConfig, int) []model.Op, layer int) []model.Op {
	if cache[layer] == nil {
		cache[layer] = gen(b.cfg.Arch, b.shape, layer)
	}
	return cache[layer]
}

func (b *builder) emit(thread int, in Instr) {
	if b.sizing {
		b.sizes[thread]++
		return
	}
	b.threads[thread] = append(b.threads[thread], in)
}

func (b *builder) newEvent() int64 {
	b.nextEvent++
	return b.nextEvent
}

func (b *builder) newSignal() int64 {
	b.nextSig++
	return b.nextSig
}

// launch emits a kernel launch, filling comm metadata for collectives.
func (b *builder) launch(thread int, op model.Op, mb int) {
	if b.sizing {
		b.sizes[thread]++
		return
	}
	in := Instr{Kind: ILaunch, Op: op, Stream: op.Stream, Microbatch: mb, PeerRank: -1}
	if op.IsComm() {
		switch op.Group {
		case model.GroupTP:
			in.CommID = b.cfg.Map.TPGroupID(b.rank)
			in.CommRanks = b.tpRanks
			in.CommSeq = b.nextSeq(in.CommID)
		case model.GroupDP:
			in.CommID = b.cfg.Map.DPGroupID(b.rank)
			in.CommRanks = b.dpRanks
			in.CommSeq = b.nextSeq(in.CommID)
		case model.GroupPPNext, model.GroupPPPrev:
			b.fillP2P(&in, op, mb)
		}
	}
	b.emit(thread, in)
}

// fillP2P assigns the pair communicator and a payload-keyed sequence number
// so that the matching send/recv on the two ranks agree regardless of their
// local issue order. The crossed boundary between virtual stages g and g+1
// is identified by the upstream member's PPPairID (under interleaving the
// boundary from the last stage wraps to stage 0's next chunk, using the
// last-stage rank's otherwise-unused pair ID); activations of chunk c's
// microbatch m use seq 2·(c·M+m), gradients the odd successor — for flat
// schedules exactly the historical 2m / 2m+1 numbering.
func (b *builder) fillP2P(in *Instr, op model.Op, mb int) {
	m := b.cfg.Map
	myG := b.curChunk*m.PP + b.stage
	var boundary int // upstream virtual stage of the crossed boundary
	switch {
	case op.Comm == trace.CommSend && op.Group == model.GroupPPNext: // fwd act out
		boundary = myG
	case op.Comm == trace.CommRecv && op.Group == model.GroupPPPrev: // fwd act in
		boundary = myG - 1
	case op.Comm == trace.CommSend && op.Group == model.GroupPPPrev: // bwd grad out
		boundary = myG - 1
	case op.Comm == trace.CommRecv && op.Group == model.GroupPPNext: // bwd grad in
		boundary = myG
	}
	up := m.Rank(b.dp, boundary%m.PP, b.tp)
	down := m.Rank(b.dp, (boundary+1)%m.PP, b.tp)
	in.CommID = m.PPPairID(up)
	seq := (int64(boundary/m.PP)*int64(b.cfg.Microbatches) + int64(mb)) * 2
	if op.Pass == trace.PassBackward {
		seq++
	}
	in.CommSeq = seq
	src, dst := up, down // forward payloads flow downstream
	if op.Pass == trace.PassBackward {
		src, dst = down, up
	}
	in.CommRanks = []int{src, dst}
	if op.Comm == trace.CommSend {
		in.PeerRank = dst
	} else {
		in.PeerRank = src
	}
}

func (b *builder) nextSeq(commID int64) int64 {
	s := b.seq[commID]
	b.seq[commID] = s + 1
	return s
}

// bridge emits the event-record / stream-wait pair that orders dst after
// src's current frontier: record on src, wait on dst. This is exactly the
// cudaEventRecord → cudaStreamWaitEvent mechanism the paper's execution
// graph recovers (Section 3.3.2, GPU-to-GPU inter-stream dependencies).
func (b *builder) bridge(thread int, src, dst model.StreamKind, mb int) {
	ev := b.newEvent()
	b.emit(thread, Instr{Kind: IEventRecord, Stream: src, Event: ev, Microbatch: mb})
	b.emit(thread, Instr{Kind: IStreamWaitEvent, Stream: dst, Event: ev, Microbatch: mb})
}

// launchOps launches a compute-stream op run, bridging around any comm ops
// so the stream graph matches Megatron's: compute → comm stream → compute.
func (b *builder) launchOps(thread int, ops []model.Op, mb int) {
	for _, op := range ops {
		if op.IsComm() && op.Stream != model.StreamCompute {
			b.bridge(thread, model.StreamCompute, op.Stream, mb)
			b.launch(thread, op, mb)
			b.bridge(thread, op.Stream, model.StreamCompute, mb)
		} else {
			b.launch(thread, op, mb)
		}
	}
}

// BuildProgram constructs the full training-iteration program for a rank.
// BuildPrograms builds every rank's at once, sharing the work across each
// stage's replicas.
func BuildProgram(cfg Config, rank int) (*Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rank < 0 || rank >= cfg.Map.WorldSize() {
		return nil, fmt.Errorf("parallel: rank %d out of range [0,%d)", rank, cfg.Map.WorldSize())
	}
	return buildProgram(cfg, rank)
}

// BuildPrograms constructs every rank's program, indexed by rank. It runs
// BuildProgram once per pipeline stage and stamps the stage's other TP×DP
// replicas from that template: a replica's instruction streams are the
// template's with only the communicator fields re-resolved from its
// (dp, tp) coordinates — the TP/DP group IDs and rank lists, and the p2p
// src/dst ranks, pair IDs and peers. Ops, events, signals and sequence
// numbers do not depend on those coordinates, so every stamped program
// equals BuildProgram's for its rank.
func BuildPrograms(cfg Config) ([]*Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := cfg.Map
	progs := make([]*Program, m.WorldSize())
	for stage := 0; stage < m.PP; stage++ {
		tmpl, err := buildProgram(cfg, m.Rank(0, stage, 0))
		if err != nil {
			return nil, err
		}
		for dp := 0; dp < m.DP; dp++ {
			for tp := 0; tp < m.TP; tp++ {
				if dp == 0 && tp == 0 {
					progs[tmpl.Rank] = tmpl
					continue
				}
				p := tmpl.stamp(m, dp, tp)
				progs[p.Rank] = p
			}
		}
	}
	return progs, nil
}

// stamp copies a stage template (built for the stage's dp=0, tp=0 rank)
// for the replica at (dp, tp), re-resolving the communicator fields that
// launch and fillP2P derive from the rank's coordinates.
func (p *Program) stamp(m topology.Mapping, dp, tp int) *Program {
	rank := m.Rank(dp, p.Stage, tp)
	tpID, tpRanks := m.TPGroupID(rank), m.TPGroup(rank)
	dpID, dpRanks := m.DPGroupID(rank), m.DPGroup(rank)
	// relocate maps a template-slice rank to the same stage in this
	// replica's (dp, tp) slice.
	relocate := func(r int) int {
		_, stage, _ := m.Coords(r)
		return m.Rank(dp, stage, tp)
	}
	out := &Program{Rank: rank, Stage: p.Stage, Threads: make([][]Instr, len(p.Threads))}
	for t, src := range p.Threads {
		instrs := make([]Instr, len(src))
		copy(instrs, src)
		for i := range instrs {
			in := &instrs[i]
			if in.Kind != ILaunch || !in.Op.IsComm() {
				continue
			}
			switch in.Op.Group {
			case model.GroupTP:
				in.CommID, in.CommRanks = tpID, tpRanks
			case model.GroupDP:
				in.CommID, in.CommRanks = dpID, dpRanks
			case model.GroupPPNext, model.GroupPPPrev:
				from, to := relocate(in.CommRanks[0]), relocate(in.CommRanks[1])
				up := from // forward payloads flow downstream
				if in.Op.Pass == trace.PassBackward {
					up = to
				}
				in.CommID = m.PPPairID(up)
				in.CommRanks = []int{from, to}
				in.PeerRank = relocate(in.PeerRank)
			}
		}
		out.Threads[t] = instrs
	}
	return out
}

// buildProgram is BuildProgram for a validated config and in-range rank.
// A sizing pass first counts each thread's instructions, so the emitting
// pass allocates every stream once, at its exact length.
func buildProgram(cfg Config, rank int) (*Program, error) {
	_, stage, _ := cfg.Map.Coords(rank)
	slots, err := cfg.StageSlots(stage)
	if err != nil {
		return nil, err
	}
	ops := newLayerOps(cfg.Arch.Layers)
	sizer := newBuilder(cfg, rank, ops)
	sizer.sizing = true
	sizer.iteration(slots)

	b := newBuilder(cfg, rank, ops)
	for t, n := range sizer.sizes {
		b.threads[t] = make([]Instr, 0, n)
	}
	b.iteration(slots)
	return &Program{Rank: rank, Stage: stage, Threads: b.threads}, nil
}

// newBuilder returns an empty builder for rank sharing the stage's layer
// op memo.
func newBuilder(cfg Config, rank int, ops *layerOps) *builder {
	dp, stage, tp := cfg.Map.Coords(rank)
	return &builder{
		cfg:     cfg,
		rank:    rank,
		stage:   stage,
		dp:      dp,
		tp:      tp,
		threads: make([][]Instr, 2),
		seq:     map[int64]int64{},
		tpRanks: cfg.Map.TPGroup(rank),
		dpRanks: cfg.Map.DPGroup(rank),
		shape:   cfg.shape(),
		ops:     ops,
	}
}

// iteration emits one training iteration over the stage's slots: the
// preamble, every forward/backward/weight slot, and the optimizer step.
func (b *builder) iteration(slots []Slot) {
	cfg := b.cfg
	buckets := cfg.bucketPlan(b.stage)

	// Iteration preamble: dataloader + python dispatch overhead.
	b.emit(threadMain, Instr{Kind: ICPUWork, Name: "DataLoader::next", CPUDur: 150 * trace.Microsecond, Microbatch: -1})

	// A chunk's gradient buckets fire in the slot that finalizes its
	// gradients: the chunk's last backward slot, or — under zero-bubble
	// schedules, where the W pass computes the weight gradients — its last
	// weight slot.
	fireKind := SlotBackward
	if cfg.Schedule == ZBH1 {
		fireKind = SlotWeight
	}
	fireAt := make([]bool, len(slots))
	lastOf := map[int]int{}
	for i := range slots {
		if slots[i].Kind == fireKind {
			lastOf[slots[i].Chunk] = i
		}
	}
	for _, i := range lastOf {
		fireAt[i] = true
	}

	for i, slot := range slots {
		mb, chunk := slot.Microbatch, slot.Chunk
		b.curChunk = chunk
		switch slot.Kind {
		case SlotForward:
			b.forwardSlot(mb, chunk)
		case SlotBackward:
			b.backwardSlot(mb, chunk, fireAt[i], buckets)
		case SlotWeight:
			b.weightSlot(mb, chunk, fireAt[i], buckets)
		}
	}

	// Wait for gradient all-reduces before the optimizer step: a real
	// GPU→CPU dependency via cudaStreamSynchronize.
	if cfg.Map.DP > 1 {
		b.emit(threadMain, Instr{Kind: IStreamSync, Stream: model.StreamDPComm, Microbatch: -1})
	}
	for _, op := range cfg.Arch.OptimizerOps(cfg.LocalParams(b.stage), cfg.OptimizerChunks) {
		b.launch(threadMain, op, -1)
	}
	b.emit(threadMain, Instr{Kind: IDeviceSync, Microbatch: -1})
	b.emit(threadMain, Instr{Kind: ICPUWork, Name: "Iteration::end", CPUDur: 50 * trace.Microsecond, Microbatch: -1})
}

// forwardSlot emits one chunk-microbatch's forward pass on the main thread.
func (b *builder) forwardSlot(mb, chunk int) {
	cfg := b.cfg
	arch, shape := cfg.Arch, b.shape
	g := chunk*cfg.Map.PP + b.stage
	gLast := cfg.GlobalStages() - 1
	lo, hi := cfg.ChunkLayers(b.stage, chunk)
	b.emit(threadMain, Instr{Kind: ICPUWork, Name: "forward_step", CPUDur: 30 * trace.Microsecond, Microbatch: mb})

	if g > 0 {
		// Receive the upstream activation, then make compute wait on it.
		// Megatron's p2p_communication synchronizes the CPU after the
		// batched recv, so the host does not run ahead of the pipeline;
		// this is also the main source of GPU→CPU dependencies in traces.
		recv := arch.PPRecv(shape, trace.PassForward)
		b.launch(threadMain, recv, mb)
		b.bridge(threadMain, model.StreamPPRecv, model.StreamCompute, mb)
		if cfg.SyncAfterRecv {
			b.emit(threadMain, Instr{Kind: IStreamSync, Stream: model.StreamPPRecv, Microbatch: mb})
		}
	} else {
		b.launchOps(threadMain, arch.EmbeddingForward(shape), mb)
	}
	for layer := lo; layer < hi; layer++ {
		b.launchOps(threadMain, b.layer(b.ops.fwd, model.Arch.LayerForward, layer), mb)
	}
	if g < gLast {
		b.bridge(threadMain, model.StreamCompute, model.StreamPPSend, mb)
		b.launch(threadMain, arch.PPSend(shape, trace.PassForward), mb)
	} else {
		b.launchOps(threadMain, arch.HeadForward(shape), mb)
	}
}

// chunkBuckets selects the chunk's gradient buckets from the stage plan.
func chunkBuckets(buckets []bucket, chunk int) []bucket {
	var mine []bucket
	for _, bk := range buckets {
		if bk.triggerChunk == chunk {
			mine = append(mine, bk)
		}
	}
	return mine
}

// backwardSlot emits one chunk-microbatch's backward pass. The main thread
// hands off to the autograd thread (signal), which launches the backward
// kernels; the main thread blocks until the autograd thread finishes
// launching, reproducing PyTorch's loss.backward() thread structure and the
// paper's inter-thread CPU dependency. Under zero-bubble schedules only the
// input-gradient half runs here — the upstream gradient send leaves as soon
// as it is ready — and the weight-gradient half (with the bucket fires)
// moves to the weight slot.
func (b *builder) backwardSlot(mb, chunk int, fire bool, buckets []bucket) {
	cfg := b.cfg
	arch, shape := cfg.Arch, b.shape
	zb := cfg.Schedule == ZBH1
	g := chunk*cfg.Map.PP + b.stage
	gLast := cfg.GlobalStages() - 1
	lo, hi := cfg.ChunkLayers(b.stage, chunk)

	start := b.newSignal()
	done := b.newSignal()
	b.emit(threadMain, Instr{Kind: ICPUWork, Name: "backward_step", CPUDur: 25 * trace.Microsecond, Microbatch: mb})
	b.emit(threadMain, Instr{Kind: ISignal, Signal: start, Microbatch: mb})

	ag := threadAutograd
	b.emit(ag, Instr{Kind: IWaitSignal, Signal: start, Microbatch: mb})

	if g < gLast {
		recv := arch.PPRecv(shape, trace.PassBackward)
		b.launch(ag, recv, mb)
		b.bridge(ag, model.StreamPPRecv, model.StreamCompute, mb)
		if cfg.SyncAfterRecv {
			b.emit(ag, Instr{Kind: IStreamSync, Stream: model.StreamPPRecv, Microbatch: mb})
		}
	} else {
		b.launchOps(ag, arch.HeadBackward(shape), mb)
	}

	// Bucket triggers are chunk-local layer completions in backward order.
	fire = fire && !zb && cfg.Map.DP > 1
	mine := buckets
	if fire {
		mine = chunkBuckets(buckets, chunk)
	}
	bucketIdx := 0
	for layer := hi - 1; layer >= lo; layer-- {
		if zb {
			b.launchOps(ag, b.layer(b.ops.bwdIn, model.Arch.LayerBackwardInput, layer), mb)
			continue
		}
		b.launchOps(ag, b.layer(b.ops.bwd, model.Arch.LayerBackward, layer), mb)
		if fire {
			for bucketIdx < len(mine) && mine[bucketIdx].triggerLayer == layer {
				b.fireBucket(ag, mine[bucketIdx], mb)
				bucketIdx++
			}
		}
	}
	if g == 0 && !zb {
		b.launchOps(ag, arch.EmbeddingBackward(shape), mb)
	}
	if fire {
		for bucketIdx < len(mine) {
			b.fireBucket(ag, mine[bucketIdx], mb)
			bucketIdx++
		}
	}

	if g > 0 {
		b.bridge(ag, model.StreamCompute, model.StreamPPSend, mb)
		b.launch(ag, arch.PPSend(shape, trace.PassBackward), mb)
	}

	b.emit(ag, Instr{Kind: ISignal, Signal: done, Microbatch: mb})
	b.emit(threadMain, Instr{Kind: IWaitSignal, Signal: done, Microbatch: mb})
}

// weightSlot emits one microbatch's deferred weight-gradient pass (the
// zero-bubble W pass) on the autograd thread. W has no cross-stage
// dependencies — it consumes the locally stored activations and output
// gradients the B pass left behind — so its kernels fill the compute
// stream's cooldown gaps while the next backward's gradient recv is in
// flight. The chunk's gradient buckets (and the first stage's embedding
// weight gradient) fire here, once the last microbatch's weight gradients
// are final.
func (b *builder) weightSlot(mb, chunk int, fire bool, buckets []bucket) {
	cfg := b.cfg
	arch, shape := cfg.Arch, b.shape
	g := chunk*cfg.Map.PP + b.stage
	lo, hi := cfg.ChunkLayers(b.stage, chunk)

	start := b.newSignal()
	done := b.newSignal()
	b.emit(threadMain, Instr{Kind: ICPUWork, Name: "weight_grad_step", CPUDur: 20 * trace.Microsecond, Microbatch: mb})
	b.emit(threadMain, Instr{Kind: ISignal, Signal: start, Microbatch: mb})

	ag := threadAutograd
	b.emit(ag, Instr{Kind: IWaitSignal, Signal: start, Microbatch: mb})

	fire = fire && cfg.Map.DP > 1
	mine := buckets
	if fire {
		mine = chunkBuckets(buckets, chunk)
	}
	bucketIdx := 0
	for layer := hi - 1; layer >= lo; layer-- {
		b.launchOps(ag, b.layer(b.ops.bwdW, model.Arch.LayerBackwardWeight, layer), mb)
		if fire {
			for bucketIdx < len(mine) && mine[bucketIdx].triggerLayer == layer {
				b.fireBucket(ag, mine[bucketIdx], mb)
				bucketIdx++
			}
		}
	}
	if g == 0 {
		b.launchOps(ag, arch.EmbeddingBackward(shape), mb)
	}
	if fire {
		for bucketIdx < len(mine) {
			b.fireBucket(ag, mine[bucketIdx], mb)
			bucketIdx++
		}
	}

	b.emit(ag, Instr{Kind: ISignal, Signal: done, Microbatch: mb})
	b.emit(threadMain, Instr{Kind: IWaitSignal, Signal: done, Microbatch: mb})
}

// fireBucket launches one data-parallel gradient all-reduce, ordered after
// the compute stream's current frontier.
func (b *builder) fireBucket(thread int, bk bucket, mb int) {
	b.bridge(thread, model.StreamCompute, model.StreamDPComm, mb)
	b.launch(thread, model.DPAllReduce(bk.index, bk.bytes), mb)
}

// bucket is a data-parallel gradient bucket: fired when triggerLayer's
// backward (weight pass under zero-bubble) completes during its chunk's
// last gradient-finalizing slot (or at that slot's end for the per-chunk
// remainder bucket with triggerLayer == -1).
type bucket struct {
	index        int
	bytes        int64
	triggerLayer int
	triggerChunk int
}

// bucketPlan lays gradients out into buckets in backward completion order —
// model chunks from the highest down (interleaved backward finishes chunk
// v-1 first), layers high→low within each chunk — Megatron/DDP style.
// Residual gradients flush at each chunk boundary; the first virtual stage
// adds the embedding gradient to its remainder.
func (c Config) bucketPlan(stage int) []bucket {
	if c.Map.DP <= 1 {
		return nil
	}
	gradBytes := int64(c.Arch.GradDTypeBytes)
	layerBytes := c.Arch.LayerParams() / int64(c.Map.TP) * gradBytes

	var out []bucket
	for chunk := c.VirtualChunks() - 1; chunk >= 0; chunk-- {
		lo, hi := c.ChunkLayers(stage, chunk)
		var acc int64
		for layer := hi - 1; layer >= lo; layer-- {
			acc += layerBytes
			if acc >= c.BucketBytes {
				out = append(out, bucket{index: len(out), bytes: acc, triggerLayer: layer, triggerChunk: chunk})
				acc = 0
			}
		}
		if stage == 0 && chunk == 0 {
			acc += c.Arch.EmbeddingParams() / int64(c.Map.TP) * gradBytes
		}
		if acc > 0 {
			out = append(out, bucket{index: len(out), bytes: acc, triggerLayer: -1, triggerChunk: chunk})
		}
	}
	return out
}

// NumBuckets exposes the gradient bucket count for a stage (reporting).
func (c Config) NumBuckets(stage int) int { return len(c.bucketPlan(stage)) }

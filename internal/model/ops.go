package model

import (
	"fmt"

	"lumos/internal/trace"
)

// StreamKind is the logical CUDA stream an op is launched on. The cluster
// simulator maps these to concrete stream IDs.
type StreamKind uint8

const (
	StreamCompute StreamKind = iota
	StreamTPComm
	StreamDPComm
	StreamPPSend
	StreamPPRecv
	numStreamKinds
)

var streamKindNames = [...]string{"compute", "tp_comm", "dp_comm", "pp_send", "pp_recv"}

// String names the stream kind.
func (s StreamKind) String() string {
	if int(s) < len(streamKindNames) {
		return streamKindNames[s]
	}
	return fmt.Sprintf("stream(%d)", uint8(s))
}

// NumStreamKinds is the count of logical streams per rank.
const NumStreamKinds = int(numStreamKinds)

// GroupKind identifies which communicator a comm op uses.
type GroupKind uint8

const (
	GroupNone GroupKind = iota
	GroupTP
	GroupDP
	// GroupPPNext / GroupPPPrev are the p2p channels to the downstream /
	// upstream pipeline stage.
	GroupPPNext
	GroupPPPrev
)

// Op is one GPU operation of the workload: either a compute kernel or a
// communication kernel, with enough metadata to price it and to tag the
// emitted trace events.
type Op struct {
	// Name is the kernel/operator name emitted into traces.
	Name string
	// Class is the kernel family.
	Class trace.KernelClass
	// Stream is the logical stream the kernel runs on.
	Stream StreamKind

	// FLOPs and Bytes describe compute kernels (Bytes = HBM traffic).
	FLOPs int64
	Bytes int64

	// Comm fields describe communication kernels.
	Comm      trace.CommKind
	Group     GroupKind
	CommBytes int64

	// Layer is the transformer layer index (-1 for non-layer ops such as
	// embedding, head, optimizer).
	Layer int
	// Pass tags forward/backward/optimizer.
	Pass trace.PassKind
}

// IsComm reports whether the op is a communication kernel.
func (o Op) IsComm() bool { return o.Class == trace.KCComm }

// ShapeConfig carries the deployment parameters that determine op shapes.
type ShapeConfig struct {
	// TP is the tensor-parallel degree dividing weight matrices.
	TP int
	// MicrobatchSize is sequences per microbatch per model replica.
	MicrobatchSize int
	// SequenceParallel enables Megatron-style sequence parallelism: the
	// layernorm/dropout regions are sharded along the sequence dimension
	// and the tensor-parallel all-reduces become all-gather (entering a
	// TP region) + reduce-scatter (leaving it) pairs. Total communication
	// volume is unchanged but activation memory and the norm/elementwise
	// kernels shrink by 1/TP.
	SequenceParallel bool
}

// spShard returns the divisor applied to sequence-sharded activations.
func (c ShapeConfig) spShard() int64 {
	if c.SequenceParallel && c.TP > 1 {
		return int64(c.TP)
	}
	return 1
}

// tokens returns the number of tokens processed per microbatch.
func (a Arch) tokens(c ShapeConfig) int64 {
	return int64(c.MicrobatchSize) * int64(a.SeqLen)
}

// activationBytes is the payload of one microbatch's boundary activation
// tensor (B × S × H), which is also the TP all-reduce and PP p2p payload.
func (a Arch) activationBytes(c ShapeConfig) int64 {
	return a.tokens(c) * int64(a.Hidden) * int64(a.DTypeBytes)
}

// gemm constructs a GEMM op computing an (m×k)·(k×n) product.
func gemm(name string, m, k, n int64, dtype int, layer int, pass trace.PassKind) Op {
	return Op{
		Name:   name,
		Class:  trace.KCGEMM,
		Stream: StreamCompute,
		FLOPs:  2 * m * k * n,
		Bytes:  int64(dtype) * (m*k + k*n + m*n),
		Layer:  layer,
		Pass:   pass,
	}
}

// memOp constructs a memory-bound op moving the given bytes.
func memOp(name string, class trace.KernelClass, bytes int64, layer int, pass trace.PassKind) Op {
	return Op{
		Name:   name,
		Class:  class,
		Stream: StreamCompute,
		Bytes:  bytes,
		Layer:  layer,
		Pass:   pass,
	}
}

// tpAllReduce constructs a tensor-parallel all-reduce of the boundary
// activation (or its gradient).
func tpAllReduce(name string, bytes int64, layer int, pass trace.PassKind) Op {
	return tpComm(name, trace.CommAllReduce, bytes, layer, pass)
}

// tpComm constructs a tensor-parallel collective on the TP stream.
func tpComm(name string, kind trace.CommKind, bytes int64, layer int, pass trace.PassKind) Op {
	return Op{
		Name:      name,
		Class:     trace.KCComm,
		Stream:    StreamTPComm,
		Comm:      kind,
		Group:     GroupTP,
		CommBytes: bytes,
		Layer:     layer,
		Pass:      pass,
	}
}

// enterTPRegion emits the collective entering a tensor-parallel region:
// nothing without TP, an all-gather under sequence parallelism, nothing
// otherwise (the activation is already replicated).
func enterTPRegion(c ShapeConfig, name string, bytes int64, layer int, pass trace.PassKind) []Op {
	if c.TP > 1 && c.SequenceParallel {
		return []Op{tpComm(name, trace.CommAllGather, bytes, layer, pass)}
	}
	return nil
}

// leaveTPRegion emits the collective leaving a tensor-parallel region: a
// reduce-scatter under sequence parallelism, an all-reduce otherwise.
func leaveTPRegion(c ShapeConfig, name string, bytes int64, layer int, pass trace.PassKind) []Op {
	if c.TP <= 1 {
		return nil
	}
	if c.SequenceParallel {
		return []Op{tpComm(name, trace.CommReduceScatter, bytes, layer, pass)}
	}
	return []Op{tpComm(name, trace.CommAllReduce, bytes, layer, pass)}
}

// LayerForward returns the op sequence for one transformer block's forward
// pass on one TP shard. TP all-reduces are emitted only when TP > 1,
// matching Megatron's behavior.
func (a Arch) LayerForward(c ShapeConfig, layer int) []Op {
	t := a.tokens(c) // rows of every activation GEMM
	h := int64(a.Hidden)
	f := int64(a.FFN)
	s := int64(a.SeqLen)
	b := int64(c.MicrobatchSize)
	tp := int64(c.TP)
	d := a.DTypeBytes
	actB := a.activationBytes(c)

	sp := c.spShard() // sequence-sharded regions shrink by 1/TP under SP

	ops := []Op{
		memOp("aten::native_layer_norm", trace.KCNorm, 4*t*h*int64(d)/sp, layer, trace.PassForward),
	}
	ops = append(ops, enterTPRegion(c, "nccl::all_gather_attn_fwd", actB, layer, trace.PassForward)...)
	ops = append(ops,
		gemm("aten::mm_qkv", t, h, 3*h/tp, d, layer, trace.PassForward),
		Op{
			Name:   "flash::attention_forward",
			Class:  trace.KCAttention,
			Stream: StreamCompute,
			FLOPs:  4 * b * s * s * h / tp,
			Bytes:  4 * t * h / tp * int64(d),
			Layer:  layer,
			Pass:   trace.PassForward,
		},
		gemm("aten::mm_attn_proj", t, h/tp, h, d, layer, trace.PassForward),
	)
	ops = append(ops, leaveTPRegion(c, "nccl::reduce_attn_fwd", actB, layer, trace.PassForward)...)
	ops = append(ops,
		memOp("aten::dropout_add_residual", trace.KCElementwise, 3*t*h*int64(d)/sp, layer, trace.PassForward),
		memOp("aten::native_layer_norm", trace.KCNorm, 4*t*h*int64(d)/sp, layer, trace.PassForward),
	)
	ops = append(ops, enterTPRegion(c, "nccl::all_gather_mlp_fwd", actB, layer, trace.PassForward)...)
	ops = append(ops,
		gemm("aten::mm_ffn1", t, h, f/tp, d, layer, trace.PassForward),
		memOp("aten::gelu", trace.KCElementwise, 2*t*f/tp*int64(d), layer, trace.PassForward),
		gemm("aten::mm_ffn2", t, f/tp, h, d, layer, trace.PassForward),
	)
	ops = append(ops, leaveTPRegion(c, "nccl::reduce_mlp_fwd", actB, layer, trace.PassForward)...)
	ops = append(ops,
		memOp("aten::dropout_add_residual", trace.KCElementwise, 3*t*h*int64(d)/sp, layer, trace.PassForward),
	)
	return ops
}

// LayerBackward returns the op sequence for one transformer block's
// backward pass on one TP shard. GEMM backward kernels carry 2x forward
// FLOPs (dgrad + wgrad fused for trace compactness); TP all-reduces mirror
// the forward ones on the gradient path.
func (a Arch) LayerBackward(c ShapeConfig, layer int) []Op {
	t := a.tokens(c)
	h := int64(a.Hidden)
	f := int64(a.FFN)
	s := int64(a.SeqLen)
	b := int64(c.MicrobatchSize)
	tp := int64(c.TP)
	d := a.DTypeBytes
	actB := a.activationBytes(c)

	bwdGemm := func(name string, m, k, n int64) Op {
		op := gemm(name, m, k, n, d, layer, trace.PassBackward)
		op.FLOPs *= 2
		op.Bytes *= 2
		return op
	}

	sp := c.spShard()

	ops := []Op{
		memOp("autograd::dropout_add_residual_backward", trace.KCElementwise, 3*t*h*int64(d)/sp, layer, trace.PassBackward),
	}
	// The gradient path mirrors the forward: entering the (reverse) TP
	// region needs the full-sequence gradient (all-gather under SP, the
	// all-reduce otherwise), leaving it scatters back.
	ops = append(ops, enterTPRegion(c, "nccl::all_gather_mlp_bwd", actB, layer, trace.PassBackward)...)
	if !c.SequenceParallel {
		ops = append(ops, leaveTPRegion(c, "nccl::all_reduce_mlp_bwd", actB, layer, trace.PassBackward)...)
	}
	ops = append(ops,
		bwdGemm("autograd::mm_ffn2_backward", t, f/tp, h),
		memOp("autograd::gelu_backward", trace.KCElementwise, 3*t*f/tp*int64(d), layer, trace.PassBackward),
		bwdGemm("autograd::mm_ffn1_backward", t, h, f/tp),
	)
	if c.SequenceParallel {
		ops = append(ops, tpComm("nccl::reduce_scatter_mlp_bwd", trace.CommReduceScatter, actB, layer, trace.PassBackward))
	}
	ops = append(ops,
		memOp("autograd::layer_norm_backward", trace.KCNorm, 5*t*h*int64(d)/sp, layer, trace.PassBackward),
		memOp("autograd::dropout_add_residual_backward", trace.KCElementwise, 3*t*h*int64(d)/sp, layer, trace.PassBackward),
	)
	ops = append(ops, enterTPRegion(c, "nccl::all_gather_attn_bwd", actB, layer, trace.PassBackward)...)
	if !c.SequenceParallel {
		ops = append(ops, leaveTPRegion(c, "nccl::all_reduce_attn_bwd", actB, layer, trace.PassBackward)...)
	}
	ops = append(ops,
		bwdGemm("autograd::mm_attn_proj_backward", t, h/tp, h),
		Op{
			Name:   "flash::attention_backward",
			Class:  trace.KCAttention,
			Stream: StreamCompute,
			FLOPs:  10 * b * s * s * h / tp,
			Bytes:  6 * t * h / tp * int64(d),
			Layer:  layer,
			Pass:   trace.PassBackward,
		},
		bwdGemm("autograd::mm_qkv_backward", t, h, 3*h/tp),
	)
	if c.SequenceParallel {
		ops = append(ops, tpComm("nccl::reduce_scatter_attn_bwd", trace.CommReduceScatter, actB, layer, trace.PassBackward))
	}
	ops = append(ops,
		memOp("autograd::layer_norm_backward", trace.KCNorm, 5*t*h*int64(d)/sp, layer, trace.PassBackward),
	)
	return ops
}

// LayerBackwardInput returns the input-gradient half of a transformer
// block's backward pass — the zero-bubble B pass: everything on the
// critical path to the upstream stage (elementwise/norm backwards, dgrad
// GEMMs, attention backward and the TP collectives on the activation-
// gradient path), with the weight-gradient GEMMs factored out into
// LayerBackwardWeight. The two halves together carry exactly the FLOPs and
// HBM bytes of the fused LayerBackward, so zero-bubble schedules do the
// same total work.
func (a Arch) LayerBackwardInput(c ShapeConfig, layer int) []Op {
	t := a.tokens(c)
	h := int64(a.Hidden)
	f := int64(a.FFN)
	s := int64(a.SeqLen)
	b := int64(c.MicrobatchSize)
	tp := int64(c.TP)
	d := a.DTypeBytes
	actB := a.activationBytes(c)

	dgrad := func(name string, m, k, n int64) Op {
		return gemm(name, m, k, n, d, layer, trace.PassBackward)
	}

	sp := c.spShard()

	ops := []Op{
		memOp("autograd::dropout_add_residual_backward", trace.KCElementwise, 3*t*h*int64(d)/sp, layer, trace.PassBackward),
	}
	ops = append(ops, enterTPRegion(c, "nccl::all_gather_mlp_bwd", actB, layer, trace.PassBackward)...)
	if !c.SequenceParallel {
		ops = append(ops, leaveTPRegion(c, "nccl::all_reduce_mlp_bwd", actB, layer, trace.PassBackward)...)
	}
	ops = append(ops,
		dgrad("autograd::mm_ffn2_dgrad", t, f/tp, h),
		memOp("autograd::gelu_backward", trace.KCElementwise, 3*t*f/tp*int64(d), layer, trace.PassBackward),
		dgrad("autograd::mm_ffn1_dgrad", t, h, f/tp),
	)
	if c.SequenceParallel {
		ops = append(ops, tpComm("nccl::reduce_scatter_mlp_bwd", trace.CommReduceScatter, actB, layer, trace.PassBackward))
	}
	ops = append(ops,
		memOp("autograd::layer_norm_backward", trace.KCNorm, 5*t*h*int64(d)/sp, layer, trace.PassBackward),
		memOp("autograd::dropout_add_residual_backward", trace.KCElementwise, 3*t*h*int64(d)/sp, layer, trace.PassBackward),
	)
	ops = append(ops, enterTPRegion(c, "nccl::all_gather_attn_bwd", actB, layer, trace.PassBackward)...)
	if !c.SequenceParallel {
		ops = append(ops, leaveTPRegion(c, "nccl::all_reduce_attn_bwd", actB, layer, trace.PassBackward)...)
	}
	ops = append(ops,
		dgrad("autograd::mm_attn_proj_dgrad", t, h/tp, h),
		Op{
			Name:   "flash::attention_backward",
			Class:  trace.KCAttention,
			Stream: StreamCompute,
			FLOPs:  10 * b * s * s * h / tp,
			Bytes:  6 * t * h / tp * int64(d),
			Layer:  layer,
			Pass:   trace.PassBackward,
		},
		dgrad("autograd::mm_qkv_dgrad", t, h, 3*h/tp),
	)
	if c.SequenceParallel {
		ops = append(ops, tpComm("nccl::reduce_scatter_attn_bwd", trace.CommReduceScatter, actB, layer, trace.PassBackward))
	}
	ops = append(ops,
		memOp("autograd::layer_norm_backward", trace.KCNorm, 5*t*h*int64(d)/sp, layer, trace.PassBackward),
	)
	return ops
}

// LayerBackwardWeight returns the weight-gradient half of a transformer
// block's backward pass — the zero-bubble W pass: the four wgrad GEMMs in
// backward order, pure local compute with no communication, so a schedule
// can defer them into pipeline bubbles. (The small norm-weight gradients
// stay fused into the norm backward kernels of the input half.)
func (a Arch) LayerBackwardWeight(c ShapeConfig, layer int) []Op {
	t := a.tokens(c)
	h := int64(a.Hidden)
	f := int64(a.FFN)
	tp := int64(c.TP)
	d := a.DTypeBytes

	wgrad := func(name string, m, k, n int64) Op {
		return gemm(name, m, k, n, d, layer, trace.PassBackward)
	}
	return []Op{
		wgrad("autograd::mm_ffn2_wgrad", t, f/tp, h),
		wgrad("autograd::mm_ffn1_wgrad", t, h, f/tp),
		wgrad("autograd::mm_attn_proj_wgrad", t, h/tp, h),
		wgrad("autograd::mm_qkv_wgrad", t, h, 3*h/tp),
	}
}

// EmbeddingForward returns the first pipeline stage's pre-layer ops for one
// microbatch: token+position embedding lookup (vocab-parallel under TP).
func (a Arch) EmbeddingForward(c ShapeConfig) []Op {
	t := a.tokens(c)
	h := int64(a.Hidden)
	d := int64(a.DTypeBytes)
	ops := []Op{
		memOp("aten::embedding", trace.KCEmbedding, 3*t*h*d, -1, trace.PassForward),
	}
	if c.TP > 1 {
		// Vocab-parallel embedding requires an all-reduce of the gathered
		// activations across the TP group.
		ops = append(ops, tpAllReduce("nccl::all_reduce_embed_fwd", a.activationBytes(c), -1, trace.PassForward))
	}
	return ops
}

// EmbeddingBackward returns the gradient-side embedding ops.
func (a Arch) EmbeddingBackward(c ShapeConfig) []Op {
	t := a.tokens(c)
	h := int64(a.Hidden)
	d := int64(a.DTypeBytes)
	return []Op{
		memOp("autograd::embedding_dense_backward", trace.KCEmbedding, 4*t*h*d, -1, trace.PassBackward),
	}
}

// HeadForward returns the last pipeline stage's post-layer ops for one
// microbatch: final layernorm, the LM-head projection into the
// (TP-sharded) vocabulary, and the fused softmax cross-entropy.
func (a Arch) HeadForward(c ShapeConfig) []Op {
	t := a.tokens(c)
	h := int64(a.Hidden)
	v := int64(a.Vocab)
	tp := int64(c.TP)
	d := a.DTypeBytes

	ops := []Op{
		memOp("aten::native_layer_norm", trace.KCNorm, 4*t*h*int64(d), -1, trace.PassForward),
		gemm("aten::mm_lm_head", t, h, v/tp, d, -1, trace.PassForward),
		memOp("aten::softmax_cross_entropy", trace.KCSoftmax, 3*t*v/tp*int64(d), -1, trace.PassForward),
	}
	if c.TP > 1 {
		// Cross-entropy over a vocab-sharded logit tensor reduces the
		// per-token max/sum across the TP group; payload is small (one
		// scalar pair per token) but the synchronization is real.
		ops = append(ops, tpAllReduce("nccl::all_reduce_loss", 2*t*4, -1, trace.PassForward))
	}
	return ops
}

// HeadBackward returns the loss/LM-head backward ops.
func (a Arch) HeadBackward(c ShapeConfig) []Op {
	t := a.tokens(c)
	h := int64(a.Hidden)
	v := int64(a.Vocab)
	tp := int64(c.TP)
	d := a.DTypeBytes

	op := gemm("autograd::mm_lm_head_backward", t, h, v/tp, d, -1, trace.PassBackward)
	op.FLOPs *= 2
	op.Bytes *= 2
	return []Op{
		memOp("autograd::softmax_cross_entropy_backward", trace.KCSoftmax, 3*t*v/tp*int64(d), -1, trace.PassBackward),
		op,
		memOp("autograd::layer_norm_backward", trace.KCNorm, 5*t*h*int64(d), -1, trace.PassBackward),
	}
}

// OptimizerOps returns the fused-Adam update kernels for localParams
// parameters, split into nChunks kernels as fused optimizers process
// parameter groups in chunks.
func (a Arch) OptimizerOps(localParams int64, nChunks int) []Op {
	if nChunks < 1 {
		nChunks = 1
	}
	// Adam reads param, grad, m, v and writes param, m, v: with FP32 state
	// and BF16 params that is roughly 4+4+4+4 read + 2+4+4 write bytes.
	const bytesPerParam = 26
	ops := make([]Op, 0, nChunks)
	per := localParams / int64(nChunks)
	rem := localParams % int64(nChunks)
	for i := 0; i < nChunks; i++ {
		p := per
		if int64(i) < rem {
			p++
		}
		if p == 0 {
			continue
		}
		ops = append(ops, memOp(
			fmt.Sprintf("optim::fused_adam_%d", i),
			trace.KCOptimizer, p*bytesPerParam, -1, trace.PassOptimizer))
	}
	return ops
}

// PPSend returns a pipeline p2p send op for one microbatch boundary tensor.
func (a Arch) PPSend(c ShapeConfig, pass trace.PassKind) Op {
	dir := GroupPPNext
	name := "nccl::send_activation"
	if pass == trace.PassBackward {
		dir = GroupPPPrev
		name = "nccl::send_grad"
	}
	return Op{
		Name:      name,
		Class:     trace.KCComm,
		Stream:    StreamPPSend,
		Comm:      trace.CommSend,
		Group:     dir,
		CommBytes: a.activationBytes(c),
		Layer:     -1,
		Pass:      pass,
	}
}

// PPRecv returns a pipeline p2p receive op for one microbatch boundary
// tensor.
func (a Arch) PPRecv(c ShapeConfig, pass trace.PassKind) Op {
	dir := GroupPPPrev
	name := "nccl::recv_activation"
	if pass == trace.PassBackward {
		dir = GroupPPNext
		name = "nccl::recv_grad"
	}
	return Op{
		Name:      name,
		Class:     trace.KCComm,
		Stream:    StreamPPRecv,
		Comm:      trace.CommRecv,
		Group:     dir,
		CommBytes: a.activationBytes(c),
		Layer:     -1,
		Pass:      pass,
	}
}

// DPAllReduce returns a data-parallel gradient all-reduce op for one bucket.
func DPAllReduce(bucket int, bytes int64) Op {
	return Op{
		Name:      fmt.Sprintf("nccl::all_reduce_grad_bucket_%d", bucket),
		Class:     trace.KCComm,
		Stream:    StreamDPComm,
		Comm:      trace.CommAllReduce,
		Group:     GroupDP,
		CommBytes: bytes,
		Layer:     -1,
		Pass:      trace.PassBackward,
	}
}

// Package kernelmodel prices individual GPU kernels.
//
// Two predictors are provided:
//
//   - Oracle: an analytical H100-class roofline model (peak FLOP/s, HBM
//     bandwidth, efficiency curves). The ground-truth cluster simulator uses
//     it, plus jitter, to generate "real" executions.
//
//   - Fitted: the reproduction of the paper's "in-house GPU kernel
//     performance model built by analyzing fleet traces". It is calibrated
//     by least squares from collected traces — per-kernel-family linear
//     models over (FLOPs, bytes) for compute kernels, and alpha-beta models
//     (startup latency + 1/bandwidth) per collective kind and fabric tier
//     for communication kernels. Graph manipulation uses Fitted to price
//     kernels whose shapes or communicator sizes differ from the profiled
//     configuration, so prediction error is honest rather than oracular.
package kernelmodel

import (
	"fmt"
	"math"

	"lumos/internal/collective"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// Predictor prices compute and communication kernels.
type Predictor interface {
	// Compute returns the duration of a compute kernel of the given class
	// performing flops floating-point operations and moving bytes through
	// memory.
	Compute(class trace.KernelClass, flops, bytes int64) trace.Dur
	// Comm returns the duration of a communication kernel of the given kind
	// with the given payload over the given participant ranks.
	Comm(kind trace.CommKind, bytes int64, ranks []int) trace.Dur
}

// Oracle is the analytical device model.
type Oracle struct {
	// PeakFLOPs is peak dense throughput in FLOP/s for the training dtype
	// (H100 SXM BF16 w/ FP32 accumulate ≈ 989e12).
	PeakFLOPs float64
	// HBMBW is peak memory bandwidth in bytes/s (H100 SXM ≈ 3.35e12).
	HBMBW float64
	// KernelOverhead is the fixed device-side cost per kernel in ns.
	KernelOverhead float64

	// Collectives prices communication kernels.
	Collectives collective.Pricer
}

// NewOracleFabric returns an H100-class oracle over a fabric, pricing
// communication with collective.NewPricer.
func NewOracleFabric(f topology.Fabric) *Oracle {
	o := NewDeviceOracle()
	o.Collectives = collective.NewPricer(f)
	return o
}

// NewDeviceOracle returns the H100-class device roofline constants with no
// collective backend bound: a compute-only predictor for analytic cost
// bounds (the planner's cheap fidelity). Comm must not be called on it;
// communication is priced directly by a collective.Pricer instead.
func NewDeviceOracle() *Oracle {
	return &Oracle{
		PeakFLOPs:      989e12,
		HBMBW:          3.35e12,
		KernelOverhead: 2_500,
	}
}

// classEfficiency returns the (flopEff, memEff) pair for a kernel class:
// what fraction of peak FLOPs / peak bandwidth the class achieves at large
// sizes.
func classEfficiency(class trace.KernelClass) (flopEff, memEff float64) {
	switch class {
	case trace.KCGEMM:
		return 0.66, 0.80
	case trace.KCAttention:
		return 0.48, 0.75
	case trace.KCElementwise:
		return 0.05, 0.82
	case trace.KCNorm:
		return 0.04, 0.72
	case trace.KCSoftmax:
		return 0.04, 0.70
	case trace.KCOptimizer:
		return 0.03, 0.85
	case trace.KCEmbedding:
		return 0.02, 0.55
	case trace.KCMemcpyKC:
		return 0.0, 0.90
	}
	return 0.10, 0.60
}

// sizeDerate lowers efficiency for small kernels: a kernel that cannot fill
// the device achieves a fraction of its asymptotic efficiency. The knee is
// expressed in work units (ns of ideal runtime).
func sizeDerate(idealNs float64) float64 {
	// Below ~4 µs of ideal work, occupancy effects dominate.
	const knee = 4_000.0
	return idealNs / (idealNs + knee)
}

// Compute implements Predictor.
func (o *Oracle) Compute(class trace.KernelClass, flops, bytes int64) trace.Dur {
	fe, me := classEfficiency(class)
	var tFlop, tMem float64
	if flops > 0 && fe > 0 {
		tFlop = float64(flops) / (o.PeakFLOPs * fe) * 1e9
	}
	if bytes > 0 && me > 0 {
		tMem = float64(bytes) / (o.HBMBW * me) * 1e9
	}
	ideal := math.Max(tFlop, tMem)
	if ideal <= 0 {
		return trace.Dur(o.KernelOverhead)
	}
	eff := 0.35 + 0.65*sizeDerate(ideal)
	return trace.Dur(o.KernelOverhead + ideal/eff)
}

// Comm implements Predictor.
func (o *Oracle) Comm(kind trace.CommKind, bytes int64, ranks []int) trace.Dur {
	return o.Collectives.Cost(kind, bytes, ranks)
}

// ---------------------------------------------------------------------------
// Fitted predictor

// computeSample is one observed compute kernel.
type computeSample struct {
	flops, bytes int64
	dur          trace.Dur
}

// commSample is one observed communication kernel.
type commSample struct {
	bytes int64
	n     int
	coef  float64 // algorithm payload coefficient, e.g. 2(n-1)/n for AR
	dur   trace.Dur
}

// computeFit is a per-class linear model: dur = a + b*flops + c*bytes.
type computeFit struct {
	a, b, c float64
	n       int
}

// commFit is a per-(kind,tier) alpha-beta model: dur = alpha + coef*S/bw.
type commFit struct {
	alpha float64
	invBW float64 // seconds-per-byte expressed in ns/byte
	n     int
}

// Fitted is a kernel-time predictor calibrated from traces.
type Fitted struct {
	fabric  topology.Fabric
	compute map[trace.KernelClass]*computeFit
	// comm is keyed by kind and fabric tier (innermost = 0 outward), so a
	// hierarchical fabric calibrates one alpha-beta cell per tier it
	// exercises.
	comm map[[2]int]*commFit

	// fallback prices kernels for which no samples exist.
	fallback Predictor
}

// commTier classifies a participant set by fabric tier.
func (f *Fitted) commTier(ranks []int) int {
	return f.fabric.TierOf(ranks)
}

// payloadCoef returns the fraction of payload crossing the bottleneck link
// for each primitive under ring-style algorithms; this is the feature the
// alpha-beta fit regresses against, and what lets the model extrapolate to
// unseen communicator sizes.
func payloadCoef(kind trace.CommKind, n int) float64 {
	if n <= 1 {
		return 0
	}
	switch kind {
	case trace.CommAllReduce:
		return 2 * float64(n-1) / float64(n)
	case trace.CommAllGather, trace.CommReduceScatter, trace.CommAllToAll:
		return float64(n-1) / float64(n)
	case trace.CommBroadcast, trace.CommSend, trace.CommRecv:
		return 1
	}
	return 1
}

// Fit calibrates a predictor from one or more collected multi-rank traces
// over the given fabric. fallback (usually an Oracle) prices families
// absent from the traces; it may be nil, in which case unseen families get
// a conservative constant.
func Fit(traces []*trace.Multi, fabric topology.Fabric, fallback Predictor) (*Fitted, error) {
	f := &Fitted{
		fabric:   fabric,
		compute:  map[trace.KernelClass]*computeFit{},
		comm:     map[[2]int]*commFit{},
		fallback: fallback,
	}
	computeSamples := map[trace.KernelClass][]computeSample{}
	commSamples := map[[2]int][]commSample{}

	for _, m := range traces {
		groups := collectGroups(m)
		for _, t := range m.Ranks {
			for i := range t.Events {
				e := &t.Events[i]
				if e.Cat != trace.CatKernel || e.Class == trace.KCComm {
					continue
				}
				computeSamples[e.Class] = append(computeSamples[e.Class], computeSample{
					flops: e.FLOPs, bytes: e.Bytes, dur: e.Dur,
				})
			}
		}
		// One sample per collective instance, using the group's intrinsic
		// duration (its minimum across participants): individual kernel
		// durations include rendezvous waiting, which would poison the fit
		// — a receive posted early records mostly spin time, not transfer
		// time.
		for _, ga := range groups {
			if len(ga.ranks) < 2 {
				continue
			}
			tier := f.commTier(ga.ranks)
			k := [2]int{int(ga.kind), tier}
			commSamples[k] = append(commSamples[k], commSample{
				bytes: ga.bytes,
				n:     len(ga.ranks),
				coef:  payloadCoef(ga.kind, len(ga.ranks)),
				dur:   ga.minDur,
			})
		}
	}

	for class, samples := range computeSamples {
		fit, err := fitCompute(samples)
		if err != nil {
			return nil, fmt.Errorf("kernelmodel: class %s: %w", class, err)
		}
		f.compute[class] = fit
	}
	for key, samples := range commSamples {
		f.comm[key] = fitComm(samples)
	}
	return f, nil
}

type groupKey struct {
	id, seq int64
}

// groupAgg is one collective instance reconstructed from traces.
type groupAgg struct {
	kind   trace.CommKind
	bytes  int64
	minDur trace.Dur
	ranks  []int
}

// collectGroups reconstructs collective instances from traces: participant
// sets are recovered by matching (commID, seq) across ranks, without
// out-of-band communicator metadata; each instance's intrinsic duration is
// the minimum recorded member duration.
func collectGroups(m *trace.Multi) map[groupKey]*groupAgg {
	out := map[groupKey]*groupAgg{}
	for _, t := range m.Ranks {
		for i := range t.Events {
			e := &t.Events[i]
			if e.Cat != trace.CatKernel || e.Class != trace.KCComm {
				continue
			}
			k := groupKey{e.CommID, e.CommSeq}
			ga := out[k]
			if ga == nil {
				ga = &groupAgg{kind: e.Comm, bytes: e.CommBytes, minDur: e.Dur}
				out[k] = ga
			}
			if e.Dur < ga.minDur {
				ga.minDur = e.Dur
			}
			ga.ranks = append(ga.ranks, t.Rank)
		}
	}
	return out
}

// fitCompute solves min ||a + b*flops + c*bytes - dur||^2 with a small ridge
// term for numerical stability on degenerate sample sets.
func fitCompute(samples []computeSample) (*computeFit, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("no samples")
	}
	// Normal equations for X = [1, flops, bytes], scaled to keep the matrix
	// well-conditioned (flops ~ 1e12 otherwise).
	const fScale, bScale = 1e-9, 1e-6
	var m [3][3]float64
	var v [3]float64
	for _, s := range samples {
		x := [3]float64{1, float64(s.flops) * fScale, float64(s.bytes) * bScale}
		y := float64(s.dur)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m[i][j] += x[i] * x[j]
			}
			v[i] += x[i] * y
		}
	}
	for i := 0; i < 3; i++ {
		m[i][i] += 1e-6 // ridge
	}
	sol, ok := solve3(m, v)
	if !ok {
		return nil, fmt.Errorf("singular normal equations over %d samples", len(samples))
	}
	return &computeFit{
		a: sol[0],
		b: sol[1] * fScale,
		c: sol[2] * bScale,
		n: len(samples),
	}, nil
}

// fitComm solves dur = alpha + (coef*bytes)*invBW by 2-var least squares.
func fitComm(samples []commSample) *commFit {
	var sxx, sx, sxy, sy float64
	n := float64(len(samples))
	for _, s := range samples {
		x := s.coef * float64(s.bytes)
		y := float64(s.dur)
		sxx += x * x
		sx += x
		sxy += x * y
		sy += y
	}
	det := n*sxx - sx*sx
	fit := &commFit{n: len(samples)}
	if det < 1e-9 {
		// All payloads identical: attribute everything to bandwidth with
		// zero intercept, which still extrapolates across group sizes.
		if sx > 0 {
			fit.invBW = sy / sx
		}
		return fit
	}
	fit.invBW = (n*sxy - sx*sy) / det
	fit.alpha = (sy - fit.invBW*sx) / n
	if fit.invBW < 0 {
		fit.invBW = 0
		fit.alpha = sy / n
	}
	if fit.alpha < 0 {
		fit.alpha = 0
		if sx > 0 {
			fit.invBW = sy / sx
		}
	}
	return fit
}

// solve3 solves a 3x3 linear system by Gaussian elimination with partial
// pivoting.
func solve3(m [3][3]float64, v [3]float64) ([3]float64, bool) {
	a := m
	b := v
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[p][col]) {
				p = r
			}
		}
		if math.Abs(a[p][col]) < 1e-12 {
			return [3]float64{}, false
		}
		a[col], a[p] = a[p], a[col]
		b[col], b[p] = b[p], b[col]
		for r := col + 1; r < 3; r++ {
			f := a[r][col] / a[col][col]
			for c := col; c < 3; c++ {
				a[r][c] -= f * a[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	var x [3]float64
	for i := 2; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < 3; j++ {
			s -= a[i][j] * x[j]
		}
		x[i] = s / a[i][i]
	}
	return x, true
}

// Compute implements Predictor.
func (f *Fitted) Compute(class trace.KernelClass, flops, bytes int64) trace.Dur {
	if fit, ok := f.compute[class]; ok {
		d := fit.a + fit.b*float64(flops) + fit.c*float64(bytes)
		if d < 500 {
			d = 500 // no kernel completes in under 0.5 µs
		}
		return trace.Dur(d)
	}
	if f.fallback != nil {
		return f.fallback.Compute(class, flops, bytes)
	}
	return 5_000
}

// Comm implements Predictor.
func (f *Fitted) Comm(kind trace.CommKind, bytes int64, ranks []int) trace.Dur {
	tier := f.commTier(ranks)
	if fit, ok := f.comm[[2]int{int(kind), tier}]; ok && fit.invBW > 0 {
		d := fit.alpha + payloadCoef(kind, len(ranks))*float64(bytes)*fit.invBW
		if d < 1_000 {
			d = 1_000
		}
		return trace.Dur(d)
	}
	// Cross-tier fallback: transfer the nearest calibrated tier's fit by
	// the bandwidth ratio between the two tiers, matching how fleet models
	// transfer across fabric tiers. Inner (faster) tiers take priority at
	// equal distance, mirroring the legacy intra→inter transfer.
	for d := 1; d < f.fabric.Tiers(); d++ {
		for _, other := range [2]int{tier - d, tier + d} {
			if other < 0 || other >= f.fabric.Tiers() || other == tier {
				continue
			}
			fit, ok := f.comm[[2]int{int(kind), other}]
			if !ok || fit.invBW <= 0 {
				continue
			}
			lo, hi := other, tier
			if lo > hi {
				lo, hi = hi, lo
			}
			ratio := f.fabric.Tier(lo).BW / f.fabric.Tier(hi).BW
			inv := fit.invBW
			if tier == hi {
				inv *= ratio
			} else {
				inv /= ratio
			}
			return trace.Dur(fit.alpha + payloadCoef(kind, len(ranks))*float64(bytes)*inv)
		}
	}
	if f.fallback != nil {
		return f.fallback.Comm(kind, bytes, ranks)
	}
	return 20_000
}

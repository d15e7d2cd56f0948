// Package lumos is the public API of the Lumos reproduction: a trace-driven
// performance modeling and estimation toolkit for large-scale LLM training
// (Liang et al., MLSys 2025).
//
// The workflow is profile-once, sweep-many: collect (or simulate) one
// profiled iteration of a base deployment, then explore the design space —
// other data/pipeline-parallel degrees, other architectures, kernel-level
// counterfactuals — as a campaign of Scenarios evaluated concurrently
// against shared calibration state:
//
//	tk := lumos.New(lumos.WithConcurrency(8))
//	cfg, _ := lumos.DeploymentConfig(lumos.GPT3_15B(), 2, 2, 4) // TP×PP×DP
//	sweep, _ := tk.Evaluate(ctx, cfg,
//		lumos.BaselineScenario(),
//		lumos.ScaleDPScenario(8),
//		lumos.ScalePPScenario(4),
//		lumos.ArchScenario(lumos.GPT3_V3()),
//		lumos.ClassScaleScenario(lumos.KCGEMM, 0.5),
//		lumos.FusionScenario(),
//	)
//	for _, r := range sweep.Top(3) {
//		fmt.Println(r.Name, r.Iteration, r.Speedup)
//	}
//
// The base is profiled once and the kernel library and fitted kernel model
// are built once; every scenario shares them, so campaigns are both the
// idiomatic and the fast path. GridSweep enumerates whole TP×PP×DP grids,
// and Toolkit.Plan goes one step further: an exact search over a declared
// parallelism × microbatch × fabric Space with an analytic memory
// pre-filter and Pareto-frontier output (see plan.go). Single-shot entry
// points (Profile, BuildGraph, Replay, WhatIfScale) remain for
// step-by-step use and all accept a context for cancellation; a
// prediction of another deployment is a campaign of one DeployScenario.
//
// Subsystem packages live under internal/.
package lumos

import (
	"context"
	"fmt"

	"lumos/internal/analysis"
	"lumos/internal/core"
	"lumos/internal/execgraph"
	"lumos/internal/model"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// Core façade.
type (
	// Toolkit is a configured Lumos instance, safe for concurrent use.
	Toolkit = core.Toolkit
	// Option configures a Toolkit (see With*).
	Option = core.Option
	// ReplayResult is a simulated execution with derived metrics.
	ReplayResult = core.ReplayResult
)

// New returns a toolkit configured by the given options.
func New(opts ...Option) *Toolkit { return core.New(opts...) }

// WithFabric sets the interconnect model used for profiling and prediction:
// any Fabric, e.g. H100Cluster(128) (the default, sized on demand),
// NVLDomainFabric(512) or OversubscribedFabric(512, 4), optionally wrapped
// by DegradeFabric.
func WithFabric(f Fabric) Option { return core.WithFabric(f) }

// WithConcurrency bounds the number of scenarios evaluated in parallel
// during a sweep.
func WithConcurrency(n int) Option { return core.WithConcurrency(n) }

// WithSeed sets the profiling seed Evaluate uses for the base profile.
func WithSeed(seed uint64) Option { return core.WithSeed(seed) }

// WithDiskCache enables the disk-backed, content-addressed scenario and
// calibration cache rooted at dir (created on first use). Sweeps and plans
// warm-start from entries written by earlier processes at the same dir —
// the kernel calibration is reloaded instead of refit and previously
// simulated points are served from disk — with results bit-identical to
// uncached runs. Entries are schema-versioned, checksummed, written
// atomically, and evicted least-recently-used beyond the size cap.
func WithDiskCache(dir string) Option { return core.WithDiskCache(dir) }

// WithDiskCacheCap sets the disk cache eviction size cap in bytes; n <= 0
// selects the default (512 MiB).
func WithDiskCacheCap(n int64) Option { return core.WithDiskCacheCap(n) }

// CacheStats is the two-level scenario cache activity of a campaign state:
// in-memory memo hits/entries, this state's disk hits/misses, and the
// shared on-disk store's counters (hits, misses, puts, evictions, discards,
// occupancy). Retrieve it with BaseState.CacheStats.
type CacheStats = core.CacheStats

// Workload and deployment types.
type (
	// Arch is a transformer architecture description.
	Arch = model.Arch
	// Config is a full training deployment.
	Config = parallel.Config
	// Mapping is a 3D-parallel rank layout.
	Mapping = topology.Mapping
	// Fabric is the hierarchical interconnect abstraction: tiers of
	// bandwidth/latency from NVLink domain out to spine. Deployments,
	// predictions and what-if campaigns bind one Fabric.
	Fabric = topology.Fabric
	// HierFabric is an N-tier hierarchical fabric with contiguous
	// rank-to-domain placement.
	HierFabric = topology.HierFabric
	// Link is one fabric tier's per-GPU bandwidth/latency pair.
	Link = topology.Link
	// Trace is one rank's profiling trace; Multi a distributed run's set.
	Trace = trace.Trace
	// Multi is a set of per-rank traces.
	Multi = trace.Multi
	// Graph is the task-level execution graph.
	Graph = execgraph.Graph
	// Task is one node of the execution graph.
	Task = execgraph.Task
	// KernelClass classifies GPU kernels (KCGEMM, KCComm, ...).
	KernelClass = trace.KernelClass
	// Breakdown is the exposed-compute/overlapped/exposed-comm/other
	// decomposition.
	Breakdown = analysis.Breakdown
)

// Task kinds, re-exported for graph analyses.
const (
	TaskCPU = execgraph.TaskCPU
	TaskGPU = execgraph.TaskGPU
)

// Kernel classes, re-exported for scenario predicates.
const (
	KCGEMM        = trace.KCGEMM
	KCAttention   = trace.KCAttention
	KCElementwise = trace.KCElementwise
	KCNorm        = trace.KCNorm
	KCSoftmax     = trace.KCSoftmax
	KCOptimizer   = trace.KCOptimizer
	KCEmbedding   = trace.KCEmbedding
	KCComm        = trace.KCComm
)

// GPT-3 presets from the paper's Table 1 and Table 2.
func GPT3_15B() Arch  { return model.GPT3_15B() }
func GPT3_44B() Arch  { return model.GPT3_44B() }
func GPT3_117B() Arch { return model.GPT3_117B() }
func GPT3_175B() Arch { return model.GPT3_175B() }
func GPT3_V1() Arch   { return model.GPT3_V1() }
func GPT3_V2() Arch   { return model.GPT3_V2() }
func GPT3_V3() Arch   { return model.GPT3_V3() }
func GPT3_V4() Arch   { return model.GPT3_V4() }

// DeploymentConfig builds a deployment with paper-like defaults for the
// given architecture and TP×PP×DP mapping.
func DeploymentConfig(arch Arch, tp, pp, dp int) (Config, error) {
	m, err := topology.NewMapping(tp, pp, dp)
	if err != nil {
		return Config{}, err
	}
	cfg := parallel.DefaultConfig(arch, m)
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("lumos: %w", err)
	}
	return cfg, nil
}

// Analysis helpers.

// IterationTime returns the distributed iteration time of a trace set.
func IterationTime(m *Multi) int64 { return analysis.IterationTime(m) }

// RankBreakdown decomposes one rank's execution.
func RankBreakdown(t *Trace) Breakdown { return analysis.RankBreakdown(t) }

// MultiBreakdown averages per-rank breakdowns.
func MultiBreakdown(m *Multi) Breakdown { return analysis.MultiBreakdown(m) }

// SMUtilization returns per-window GPU busy fractions (Figure 6).
func SMUtilization(t *Trace, windowNs int64) []float64 {
	return analysis.SMUtilization(t, windowNs)
}

// CheckProfile reports whether m is a profile of cfg: one trace per rank
// 0..world-1, in rank order. Traces of another deployment would calibrate
// every answer against the wrong ranks, so the CLI's -in paths and
// lumosd's profile registration check this before preparing a campaign.
func CheckProfile(cfg Config, m *Multi) error {
	world := cfg.Map.WorldSize()
	shape := fmt.Sprintf("%dx%dx%d", cfg.Map.TP, cfg.Map.PP, cfg.Map.DP)
	if n := len(m.Ranks); n != world {
		return fmt.Errorf("lumos: profile has %d rank traces, deployment %s has %d ranks", n, shape, world)
	}
	for i, t := range m.Ranks {
		if t.Rank != i {
			return fmt.Errorf("lumos: profile has %d rank traces but none for rank %d, deployment %s has ranks 0..%d", len(m.Ranks), i, shape, world-1)
		}
	}
	return nil
}

// SaveTraces / LoadTraces persist per-rank Kineto-style JSON.
func SaveTraces(m *Multi, dir string) error { return core.SaveTraces(m, dir) }
func LoadTraces(dir string) (*Multi, error) { return core.LoadTraces(dir) }

// H100Cluster returns the paper's testbed for n GPUs: a two-tier fabric
// named "flat" of 8-GPU NVLink nodes joined by one RoCE tier.
func H100Cluster(n int) HierFabric { return topology.H100Cluster(n) }

// NVLDomainFabric returns an NVL72-class fabric: rack-scale 72-GPU NVLink
// domains joined by a rail-optimized RoCE fabric with a spine across pods.
func NVLDomainFabric(n int) HierFabric { return topology.NVLDomainFabric(n) }

// OversubscribedFabric returns classic 8-GPU NVLink servers under a
// leaf/spine network whose spine is oversubscribed by the given factor
// (factor 1 = full bisection).
func OversubscribedFabric(n int, factor float64) HierFabric {
	return topology.OversubscribedFabric(n, factor)
}

// DegradeFabric wraps a fabric with per-tier bandwidth scaling (the last
// factor extends to the remaining outer tiers); factor 1.0 is the identity.
// NaN, zero, negative, and infinite factors, and factors that drop any
// tier below the 1 MB/s link-bandwidth floor, are rejected at construction
// so a bad factor never flows into collective prices.
func DegradeFabric(f Fabric, factors ...float64) (Fabric, error) {
	return topology.Degrade(f, factors...)
}

// FusionReport summarizes an operator-fusion what-if.
type FusionReport = analysis.FusionReport

// SplitIterations partitions a multi-iteration profile (ProfilerStep#k
// annotations) into per-iteration trace sets.
func SplitIterations(m *Multi) []*Multi { return trace.SplitIterationsMulti(m) }

// FusionOpts tunes the operator-fusion what-if.
type FusionOpts = analysis.FusionOpts

// DefaultFusionOpts matches a fused elementwise/norm epilogue pattern.
func DefaultFusionOpts() FusionOpts { return analysis.DefaultFusionOpts() }

// Observability: self-tracing spans and a lock-cheap metrics registry.
type (
	// Tracer records pipeline spans and instant events and exports them as
	// Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev) or
	// chrome://tracing. A nil *Tracer is a valid no-op: every method on it
	// and on the spans it returns is safe to call, so instrumented code
	// pays one pointer check when tracing is disabled.
	Tracer = obs.Tracer
	// Span is one timed operation on a Tracer's timeline; obtain one with
	// Tracer.Start and nest with Span.Child.
	Span = obs.Span
	// TraceEvent is one exported Chrome trace event.
	TraceEvent = obs.TraceEvent
	// Registry is a process-local metrics registry: atomic counters,
	// gauges, and fixed-bucket histograms with deterministic snapshots and
	// Prometheus text exposition.
	Registry = obs.Registry
	// MetricsSnapshot is a point-in-time view of a Registry.
	MetricsSnapshot = obs.Snapshot
	// MetricsSample is one series in a MetricsSnapshot.
	MetricsSample = obs.Sample
	// MetricKind discriminates MetricsSample payloads.
	MetricKind = obs.Kind
)

// Metric kinds, re-exported for snapshot consumers.
const (
	MetricCounter   = obs.KindCounter
	MetricGauge     = obs.KindGauge
	MetricHistogram = obs.KindHistogram
)

// NewTracer returns an enabled tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// ParseTraceEvents decodes a Chrome trace-event JSON document produced by
// Tracer.Export (round-trip check for exported traces).
func ParseTraceEvents(data []byte) ([]TraceEvent, error) { return obs.ParseTrace(data) }

// ContextWithTracer returns a context carrying t, the one way to trace a
// toolkit call: pipeline stages (profile, calibrate, prepare, sweep),
// per-scenario synthesis, graph compilation and replay, planner search
// rounds, and disk-cache activity all emit spans or instant events onto
// the tracer of the context they run under, so a server gives each request
// its own tracer on a shared toolkit. A nil t returns ctx unchanged, and
// an untraced call pays one pointer check per instrumented site.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	return obs.ContextWithTracer(ctx, t)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer { return obs.TracerFrom(ctx) }

// RegisterRuntime registers Go-runtime and process collectors on the
// registry: goroutine count, heap in-use, GC cycles and pause totals
// (runtime/metrics), process start time, and resident memory. The gauges
// are sampled at snapshot time; registration is explicit because the
// values are inherently nondeterministic.
func RegisterRuntime(r *Registry) { obs.RegisterRuntime(r) }

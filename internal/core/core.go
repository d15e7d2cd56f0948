// Package core is the Lumos toolkit API: the end-to-end workflow from the
// paper's Figure 2 — trace collection, execution-graph construction, graph
// manipulation for new configurations, and simulation-based replay and
// prediction — behind one façade.
//
// Typical use:
//
//	tk := core.New(core.WithCluster(topology.H100Cluster(64)))
//	traces, _ := tk.Profile(ctx, cfg, 42)         // or load Kineto JSON
//	g, _ := tk.BuildGraph(ctx, traces)
//	rep, _ := tk.Replay(ctx, g)                   // replayed execution
//	sweep, _ := tk.Evaluate(ctx, cfg, scenarios...) // profile-once campaign
package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"lumos/internal/analysis"
	"lumos/internal/cluster"
	"lumos/internal/collective"
	"lumos/internal/dpro"
	"lumos/internal/execgraph"
	"lumos/internal/kernelmodel"
	"lumos/internal/manip"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/replay"
	"lumos/internal/scache"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// Options carries a toolkit's resolved configuration. Construct toolkits
// with New and functional options.
type Options struct {
	// Fabric is the interconnect model used for profiling and prediction —
	// a flat two-tier topology.Cluster or any hierarchical Fabric. Nil (or
	// a zero Cluster) selects an H100 cluster sized on demand.
	Fabric topology.Fabric
	// Pricer builds the collective pricing backend for a fabric. Nil
	// selects the fabric's default (the calibrated flat alpha-beta model
	// for two-tier clusters, the hierarchical pricer otherwise).
	Pricer func(topology.Fabric) collective.Pricer
	// Graph overrides execution-graph construction options.
	Graph *execgraph.BuildOptions
	// Replay overrides simulation options.
	Replay *replay.Options
	// Concurrency bounds the sweep worker pool. Zero selects
	// min(GOMAXPROCS, 8).
	Concurrency int
	// Seed is the profiling seed Evaluate uses when it collects the base
	// profile itself.
	Seed uint64
	// NoScenarioCache disables sweep-level memoization of fingerprintable
	// scenario results (see WithScenarioCache). The zero value caches.
	// Disabling memoization also disables the disk cache layer.
	NoScenarioCache bool
	// CacheDir roots the disk-backed scenario and calibration cache (see
	// WithDiskCache). Empty disables disk caching.
	CacheDir string
	// CacheCap is the disk cache eviction size cap in bytes; <= 0 selects
	// the scache default.
	CacheCap int64
	// Tracer, when non-nil, records pipeline spans (prepare, calibrate,
	// sweep, per-scenario synthesize/compile/retime/replay) and cache
	// events for Chrome-trace export (see WithTracer). Nil — the default —
	// disables tracing with zero overhead.
	Tracer *obs.Tracer
}

// Option configures a Toolkit.
type Option func(*Options)

// WithCluster sets a flat two-tier fabric model used for profiling and
// prediction.
func WithCluster(c topology.Cluster) Option {
	return func(o *Options) { o.Fabric = c }
}

// WithFabric sets the interconnect model used for profiling and prediction:
// any topology.Fabric, e.g. topology.NVLDomainFabric or an oversubscribed
// leaf/spine preset, optionally wrapped by topology.Degrade.
func WithFabric(f topology.Fabric) Option {
	return func(o *Options) { o.Fabric = f }
}

// WithPricer swaps the collective pricing backend: the factory is invoked
// with the bound (capacity-sized) fabric wherever the toolkit needs to
// price communication — ground-truth profiling, calibration fallbacks, and
// fabric what-if scenarios. E.g. WithPricer(func(f topology.Fabric)
// collective.Pricer { return collective.NewPhasedPricer(f) }).
func WithPricer(p func(topology.Fabric) collective.Pricer) Option {
	return func(o *Options) { o.Pricer = p }
}

// WithGraphOptions overrides execution-graph construction options.
func WithGraphOptions(g execgraph.BuildOptions) Option {
	return func(o *Options) { o.Graph = &g }
}

// WithReplayOptions overrides simulation options.
func WithReplayOptions(r replay.Options) Option {
	return func(o *Options) { o.Replay = &r }
}

// WithConcurrency bounds the number of scenarios evaluated in parallel
// during a sweep. n <= 0 restores the default.
func WithConcurrency(n int) Option {
	return func(o *Options) { o.Concurrency = n }
}

// WithSeed sets the profiling seed Evaluate uses for the base profile.
func WithSeed(seed uint64) Option {
	return func(o *Options) { o.Seed = seed }
}

// WithTracer attaches an observability tracer: campaign pipeline stages,
// sweep workers, planner search rounds and disk-cache events are recorded
// as spans and instants, exportable as Chrome trace-event JSON
// (obs.Tracer.Export) and loadable in Perfetto. The default nil tracer is a
// strict no-op: instrumented hot paths pay one pointer check and keep their
// allocation budget.
func WithTracer(t *obs.Tracer) Option {
	return func(o *Options) { o.Tracer = t }
}

// WithScenarioCache enables or disables sweep-level memoization. When
// enabled (the default), scenarios with a stable fingerprint — the built-in
// deploy, architecture, class-scale and fusion scenarios — are cached per
// campaign state, so duplicate grid points across Evaluate calls on the
// same BaseState return the cached ScenarioResult instead of re-predicting.
func WithScenarioCache(enabled bool) Option {
	return func(o *Options) { o.NoScenarioCache = !enabled }
}

// Toolkit is a configured Lumos instance. It is safe for concurrent use.
type Toolkit struct {
	opts Options

	// profiles and libraryBuilds count substrate runs and kernel-library
	// calibrations, so tests can verify that sweeps share one profile and
	// one calibration across all scenarios.
	profiles      atomic.Int64
	libraryBuilds atomic.Int64

	// simPool recycles compiled replay engines (with their preallocated
	// per-task scratch state) across sweep workers and what-if calls.
	simPool sync.Pool
	// timingsPool recycles flat duration columns for compiled retimed runs
	// (one buffer pair per in-flight planner point).
	timingsPool sync.Pool
	// engineMeter aggregates replay-engine activity (programs compiled,
	// runs) across every pooled engine and campaign state.
	engineMeter replay.Counters

	// workersBusy and queueDepth are live worker-pool occupancy gauges:
	// scenarios currently being evaluated and scenarios dispatched but not
	// yet picked up. Both read zero whenever no sweep is in flight, so
	// deterministic snapshots at rest stay byte-identical.
	workersBusy atomic.Int64
	queueDepth  atomic.Int64

	// cacheOnce lazily opens the disk cache configured by CacheDir; every
	// campaign and prediction on this toolkit shares one handle.
	cacheOnce sync.Once
	cache     *scache.Cache
	cacheErr  error
}

// New returns a toolkit configured by the given options.
func New(opts ...Option) *Toolkit {
	o := Options{Seed: 42}
	for _, opt := range opts {
		opt(&o)
	}
	return &Toolkit{opts: o}
}

// acquireEngine takes a pooled replay engine (allocating on first use).
func (tk *Toolkit) acquireEngine() *replay.Compiled {
	if e, ok := tk.simPool.Get().(*replay.Compiled); ok {
		return e
	}
	c := replay.NewCompiled(tk.replayOpts())
	c.Meter(&tk.engineMeter)
	return c
}

// releaseEngine returns an engine to the pool.
func (tk *Toolkit) releaseEngine(e *replay.Compiled) { tk.simPool.Put(e) }

// timingsBuf is a pooled pair of flat duration columns for a compiled
// retimed run: seeded with the program's recorded durations, selectively
// overwritten by a CommRetimePlan, and handed to Program.Run.
type timingsBuf struct {
	dur  []trace.Dur
	gdur []trace.Dur
}

// acquireTimings returns a pooled timings buffer sized for prog, seeded
// with its recorded task and group durations.
func (tk *Toolkit) acquireTimings(prog *replay.Program) *timingsBuf {
	buf, ok := tk.timingsPool.Get().(*timingsBuf)
	if !ok {
		buf = &timingsBuf{}
	}
	base, gbase := prog.BaseDur(), prog.BaseGroupDur()
	if cap(buf.dur) < len(base) {
		buf.dur = make([]trace.Dur, len(base))
	}
	buf.dur = buf.dur[:len(base)]
	copy(buf.dur, base)
	if cap(buf.gdur) < len(gbase) {
		buf.gdur = make([]trace.Dur, len(gbase))
	}
	buf.gdur = buf.gdur[:len(gbase)]
	copy(buf.gdur, gbase)
	return buf
}

// releaseTimings returns a timings buffer to the pool. The caller must not
// retain buf or its columns (Result slices never alias them).
func (tk *Toolkit) releaseTimings(buf *timingsBuf) { tk.timingsPool.Put(buf) }

// EngineStats reports replay-engine activity across every campaign on this
// toolkit: graph lowerings performed, and simulations run.
func (tk *Toolkit) EngineStats() (compiledPrograms, compiledRuns int64) {
	return tk.engineMeter.CompiledPrograms.Load(), tk.engineMeter.CompiledRuns.Load()
}

// Counters reports how many ground-truth profiles and kernel-library
// calibrations this toolkit has performed.
func (tk *Toolkit) Counters() (profiles, libraryBuilds int64) {
	return tk.profiles.Load(), tk.libraryBuilds.Load()
}

// tracer returns the configured tracer; nil means tracing is disabled.
func (tk *Toolkit) tracer() *obs.Tracer { return tk.opts.Tracer }

// tracerFor resolves the tracer for a call: a request-scoped tracer carried
// by ctx (obs.ContextWithTracer) overrides the toolkit-bound one, so lumosd
// can give every request an isolated trace over a shared toolkit. With
// neither set this is one context lookup and stays allocation-free.
func (tk *Toolkit) tracerFor(ctx context.Context) *obs.Tracer {
	if t := obs.TracerFrom(ctx); t != nil {
		return t
	}
	return tk.opts.Tracer
}

// WorkerGauges reports live sweep worker-pool occupancy: scenarios being
// evaluated right now and scenarios dispatched but not yet picked up.
func (tk *Toolkit) WorkerGauges() (busy, queued int64) {
	return tk.workersBusy.Load(), tk.queueDepth.Load()
}

// Close releases process-held resources: the disk cache (when configured)
// stops serving and accepting entries, giving shutdown a defined point
// after which the cache directory no longer changes. Safe to call on a
// toolkit without a cache, and safe to call more than once.
func (tk *Toolkit) Close() error {
	if tk.opts.CacheDir == "" {
		return nil
	}
	c, err := tk.diskCache()
	if c == nil || err != nil {
		return err
	}
	return c.Close()
}

// RegisterMetrics exposes the toolkit's counters — profiling runs,
// calibrations, replay-engine activity, and (when configured) the disk
// cache — through the registry as snapshot-time collectors. The collectors
// read the exact same atomics Counters/EngineStats/DiskCacheStats report,
// so a /metrics scrape and the Go API can never disagree.
func (tk *Toolkit) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Collect(func() []obs.Sample {
		compiled, runs := tk.EngineStats()
		profiles, calibrations := tk.Counters()
		samples := []obs.Sample{
			{Name: "lumos_profiles_total", Kind: obs.KindCounter, Help: "Ground-truth profiling runs performed.", Value: float64(profiles)},
			{Name: "lumos_calibrations_total", Kind: obs.KindCounter, Help: "Kernel-library calibrations performed (disk-cache hits skip these).", Value: float64(calibrations)},
			{Name: "lumos_engine_compiled_programs_total", Kind: obs.KindCounter, Help: "Graphs lowered into compiled replay programs.", Value: float64(compiled)},
			{Name: "lumos_engine_runs_total", Kind: obs.KindCounter, Help: "Replay simulations run on the compiled engine.", Value: float64(runs)},
			{Name: "lumos_sweep_workers_busy", Kind: obs.KindGauge, Help: "Sweep worker-pool occupancy: scenarios being evaluated right now.", Value: float64(tk.workersBusy.Load())},
			{Name: "lumos_sweep_queue_depth", Kind: obs.KindGauge, Help: "Scenarios dispatched to the sweep worker pool but not yet picked up.", Value: float64(tk.queueDepth.Load())},
		}
		if st, ok := tk.DiskCacheStats(); ok {
			samples = append(samples,
				obs.Sample{Name: "lumos_scache_hits_total", Kind: obs.KindCounter, Help: "Disk scenario-cache hits.", Value: float64(st.Hits)},
				obs.Sample{Name: "lumos_scache_misses_total", Kind: obs.KindCounter, Help: "Disk scenario-cache misses.", Value: float64(st.Misses)},
				obs.Sample{Name: "lumos_scache_puts_total", Kind: obs.KindCounter, Help: "Disk scenario-cache inserts.", Value: float64(st.Puts)},
				obs.Sample{Name: "lumos_scache_evictions_total", Kind: obs.KindCounter, Help: "Disk scenario-cache LRU evictions.", Value: float64(st.Evictions)},
				obs.Sample{Name: "lumos_scache_discards_total", Kind: obs.KindCounter, Help: "Corrupt or foreign disk-cache entries discarded.", Value: float64(st.Discards)},
				obs.Sample{Name: "lumos_scache_entries", Kind: obs.KindGauge, Help: "Disk scenario-cache entries resident.", Value: float64(st.Entries)},
				obs.Sample{Name: "lumos_scache_bytes", Kind: obs.KindGauge, Help: "Disk scenario-cache bytes resident.", Value: float64(st.Bytes)},
				obs.Sample{Name: "lumos_scache_cap_bytes", Kind: obs.KindGauge, Help: "Disk scenario-cache eviction cap.", Value: float64(st.Cap)},
			)
		}
		return samples
	})
}

// concurrency resolves the sweep worker-pool bound.
func (tk *Toolkit) concurrency() int {
	if n := tk.opts.Concurrency; n > 0 {
		return n
	}
	n := runtime.GOMAXPROCS(0)
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// fabricFor returns the interconnect model, sized to at least world GPUs.
func (tk *Toolkit) fabricFor(world int) topology.Fabric {
	f := tk.opts.Fabric
	if f == nil {
		return topology.H100Cluster(world)
	}
	if c, ok := f.(topology.Cluster); ok && c.GPUsPerNode == 0 {
		return topology.H100Cluster(world)
	}
	if f.Capacity() < world {
		f = f.WithCapacity(world)
	}
	return f
}

// pricerFor builds the collective pricing backend for a fabric.
func (tk *Toolkit) pricerFor(f topology.Fabric) collective.Pricer {
	if tk.opts.Pricer != nil {
		return tk.opts.Pricer(f)
	}
	return collective.For(f)
}

func (tk *Toolkit) graphOpts() execgraph.BuildOptions {
	if tk.opts.Graph != nil {
		return *tk.opts.Graph
	}
	return execgraph.DefaultOptions()
}

func (tk *Toolkit) replayOpts() replay.Options {
	if tk.opts.Replay != nil {
		return *tk.opts.Replay
	}
	return replay.DefaultOptions()
}

// simConfigFor binds the toolkit's fabric (and its pricing backend) into a
// ground-truth simulator configuration.
func (tk *Toolkit) simConfigFor(world int, seed uint64) cluster.SimConfig {
	simCfg := cluster.DefaultSimConfig(world, seed)
	f := tk.fabricFor(world)
	simCfg.Fabric = f
	simCfg.Oracle = kernelmodel.NewOracleFabric(f, tk.pricerFor(f))
	return simCfg
}

// Profile runs one training iteration of the deployment on the ground-truth
// cluster simulator (the stand-in for a real cluster + PyTorch Kineto) and
// returns per-rank traces. Different seeds are different iterations.
func (tk *Toolkit) Profile(ctx context.Context, cfg parallel.Config, seed uint64) (*trace.Multi, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tk.profiles.Add(1)
	world := cfg.Map.WorldSize()
	sp := tk.tracerFor(ctx).Start("pipeline", "profile")
	sp.Annotate("world", world)
	defer sp.End()
	simCfg := tk.simConfigFor(world, seed)
	return cluster.Run(cfg, simCfg)
}

// ProfileN runs n consecutive iterations (the paper's "a single
// iteration — or just a few" profiling window) and returns merged traces
// with per-iteration ProfilerStep annotations.
func (tk *Toolkit) ProfileN(ctx context.Context, cfg parallel.Config, seed uint64, n int) (*trace.Multi, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tk.profiles.Add(1)
	world := cfg.Map.WorldSize()
	sp := tk.tracerFor(ctx).Start("pipeline", "profile")
	sp.Annotate("world", world)
	sp.Annotate("iterations", n)
	defer sp.End()
	simCfg := tk.simConfigFor(world, seed)
	return cluster.RunN(cfg, simCfg, n)
}

// BuildGraph constructs the execution graph from traces (Section 3.3).
func (tk *Toolkit) BuildGraph(ctx context.Context, m *trace.Multi) (*execgraph.Graph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return execgraph.Build(m, tk.graphOpts())
}

// ReplayResult bundles a simulation with its derived artifacts.
type ReplayResult struct {
	Result *replay.Result
	// Trace is the simulated execution in trace form.
	Trace *trace.Multi
	// Iteration is the simulated per-iteration time.
	Iteration trace.Dur
	// Breakdown is the average per-rank execution breakdown.
	Breakdown analysis.Breakdown
}

// Replay simulates an execution graph (Section 3.5, Algorithm 1) on the
// compiled engine.
func (tk *Toolkit) Replay(ctx context.Context, g *execgraph.Graph) (*ReplayResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := replay.Run(g, tk.replayOpts())
	if err != nil {
		return nil, err
	}
	tr := replay.ToTrace(g, res)
	return &ReplayResult{
		Result:    res,
		Trace:     tr,
		Iteration: res.Makespan,
		Breakdown: analysis.MultiBreakdown(tr),
	}, nil
}

// ReplayTraces is BuildGraph→Replay composed over existing traces.
func (tk *Toolkit) ReplayTraces(ctx context.Context, m *trace.Multi) (*ReplayResult, error) {
	g, err := tk.BuildGraph(ctx, m)
	if err != nil {
		return nil, err
	}
	return tk.Replay(ctx, g)
}

// ReplayDPRO replays the traces with the dPRO baseline's modeling
// assumptions, for comparison.
func (tk *Toolkit) ReplayDPRO(ctx context.Context, m *trace.Multi) (*ReplayResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := dpro.Build(m)
	if err != nil {
		return nil, err
	}
	res, err := dpro.Replay(g)
	if err != nil {
		return nil, err
	}
	tr := replay.ToTrace(g, res)
	return &ReplayResult{
		Result:    res,
		Trace:     tr,
		Iteration: res.Makespan,
		Breakdown: analysis.MultiBreakdown(tr),
	}, nil
}

// Predict manipulates the profiled execution into the requested target
// configuration and simulates it (Section 3.4). One-shot calibration: for
// repeated predictions from the same profile, use Evaluate, which builds
// the kernel library once and shares it across scenarios.
func (tk *Toolkit) Predict(ctx context.Context, req manip.Request, profiled *trace.Multi) (*manip.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lib, fitted, f, err := tk.calibrate(req, profiled)
	if err != nil {
		return nil, err
	}
	return manip.PredictWith(req, lib, fitted, f)
}

// PredictGraph is Predict via direct graph synthesis: the target's
// execution graph is generated without materializing a trace. This is the
// path campaigns use; it predicts identically to Predict.
func (tk *Toolkit) PredictGraph(ctx context.Context, req manip.Request, profiled *trace.Multi) (*manip.GraphResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	lib, fitted, f, err := tk.calibrate(req, profiled)
	if err != nil {
		return nil, err
	}
	return manip.PredictGraphWith(req, lib, fitted, f)
}

// calibrate builds one-shot calibration state (kernel library and fitted
// model) for a prediction request, honoring the toolkit's fabric and pricer
// bindings — the same artifacts a campaign's BaseState holds. With a disk
// cache configured, a previously calibrated (trace set, fabric, pricer)
// triple is reloaded instead of re-extracted and refit.
func (tk *Toolkit) calibrate(req manip.Request, profiled *trace.Multi) (*manip.Library, *kernelmodel.Fitted, topology.Fabric, error) {
	world := req.Target.Map.WorldSize()
	if base := req.Base.Map.WorldSize(); base > world {
		world = base
	}
	f := tk.fabricFor(world)
	var traceFP string
	if tk.opts.CacheDir != "" {
		traceFP = trace.Fingerprint(profiled)
	}
	lib, fitted, err := tk.calibrationFor(tk.tracer(), profiled, f, traceFP)
	if err != nil {
		return nil, nil, nil, err
	}
	return lib, fitted, f, nil
}

// WhatIfScale estimates the makespan if kernels matched by the predicate
// ran at the given duration factor (Section 5's what-if analysis), using a
// copy-on-write retiming of the graph on a pooled simulator.
func (tk *Toolkit) WhatIfScale(ctx context.Context, g *execgraph.Graph, match func(*execgraph.Task) bool, factor float64) (trace.Dur, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	sim := tk.acquireEngine()
	defer tk.releaseEngine(sim)
	return analysis.WhatIfScaleSim(sim, g, match, factor)
}

// WhatIfFusion estimates the benefit of fusing consecutive eligible
// kernels (Section 3.4's motivating example) on a pooled simulator.
func (tk *Toolkit) WhatIfFusion(ctx context.Context, g *execgraph.Graph, opts analysis.FusionOpts) (analysis.FusionReport, error) {
	if err := ctx.Err(); err != nil {
		return analysis.FusionReport{}, err
	}
	sim := tk.acquireEngine()
	defer tk.releaseEngine(sim)
	base, err := sim.Run(g)
	if err != nil {
		return analysis.FusionReport{}, err
	}
	return analysis.WhatIfFusionSim(sim, g, opts, base.Makespan)
}

// SaveTraces writes per-rank Kineto-style JSON files (rank_<N>.json) into
// dir, creating it if needed.
func SaveTraces(m *trace.Multi, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, t := range m.Ranks {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("rank_%d.json", t.Rank)))
		if err != nil {
			return err
		}
		if err := trace.EncodeJSON(f, t); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadTraces reads every rank_<N>.json in dir, sorted by rank. Gaps in the
// rank numbering are tolerated: the trace set is whatever ranks are
// present, not the contiguous prefix starting at 0.
func LoadTraces(dir string) (*trace.Multi, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "rank_*.json"))
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	type rankFile struct {
		rank int
		path string
	}
	var files []rankFile
	for _, p := range paths {
		name := filepath.Base(p)
		numeral := strings.TrimSuffix(strings.TrimPrefix(name, "rank_"), ".json")
		r, err := strconv.Atoi(numeral)
		if err != nil || r < 0 {
			continue // not a rank trace (e.g. rank_meta.json)
		}
		files = append(files, rankFile{rank: r, path: p})
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("core: no rank_*.json traces in %s", dir)
	}
	sort.Slice(files, func(i, j int) bool { return files[i].rank < files[j].rank })

	ranks := make([]*trace.Trace, 0, len(files))
	for _, rf := range files {
		f, err := os.Open(rf.path)
		if err != nil {
			return nil, err
		}
		t, err := trace.DecodeJSON(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("core: rank %d: %w", rf.rank, err)
		}
		t.Rank = rf.rank
		ranks = append(ranks, t)
	}
	return &trace.Multi{Ranks: ranks}, nil
}

// WriteTrace encodes one rank's trace as Kineto JSON to w.
func WriteTrace(w io.Writer, t *trace.Trace) error { return trace.EncodeJSON(w, t) }

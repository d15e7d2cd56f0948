// Package core is the Lumos toolkit API: the end-to-end workflow from the
// paper's Figure 2 — trace collection, execution-graph construction, graph
// manipulation for new configurations, and simulation-based replay and
// prediction — behind one façade.
//
// Typical use:
//
//	tk := core.New(core.WithFabric(topology.H100Cluster(64)))
//	traces, _ := tk.Profile(ctx, cfg, 42)         // or load Kineto JSON
//	g, _ := tk.BuildGraph(ctx, traces)
//	rep, _ := tk.Replay(ctx, g)                   // replayed execution
//	sweep, _ := tk.Evaluate(ctx, cfg, scenarios...) // profile-once campaign
//
// A call is traced by the tracer its context carries
// (obs.ContextWithTracer): pipeline and scenario spans, planner search
// instants and disk-cache instants all land there.
package core

import (
	"context"
	"fmt"
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
	"lumos/internal/dpro"
	"lumos/internal/execgraph"
	"lumos/internal/kernelmodel"
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
	// Fabric is the interconnect model used for profiling and prediction.
	// Nil selects the paper's H100 testbed (topology.H100Cluster) sized on
	// demand.
	Fabric topology.Fabric
	// Concurrency bounds the sweep worker pool. Zero selects
	// min(GOMAXPROCS, 8).
	Concurrency int
	// Seed is the profiling seed Evaluate uses when it collects the base
	// profile itself.
	Seed uint64
	// CacheDir roots the disk-backed scenario and calibration cache (see
	// WithDiskCache). Empty disables disk caching.
	CacheDir string
	// CacheCap is the disk cache eviction size cap in bytes; <= 0 selects
	// the scache default.
	CacheCap int64
}

// Option configures a Toolkit.
type Option func(*Options)

// WithFabric sets the interconnect model used for profiling and prediction:
// any topology.Fabric, e.g. topology.NVLDomainFabric or an oversubscribed
// leaf/spine preset, optionally wrapped by topology.Degrade.
func WithFabric(f topology.Fabric) Option {
	return func(o *Options) { o.Fabric = f }
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

// Toolkit is a configured Lumos instance. It is safe for concurrent use.
type Toolkit struct {
	opts Options

	// profiles and libraryBuilds count substrate runs and kernel-library
	// calibrations, so tests can verify that sweeps share one profile and
	// one calibration across all scenarios.
	profiles      atomic.Int64
	libraryBuilds atomic.Int64

	// scratchPool recycles replay scratches (the per-task mutable state of
	// Program.Run) across sweep workers and what-if calls.
	scratchPool sync.Pool
	// timingsPool recycles flat duration columns for retimed runs (one
	// pair per in-flight what-if or planner point).
	timingsPool sync.Pool

	// workersBusy and queueDepth are live worker-pool occupancy gauges:
	// scenarios currently being evaluated and scenarios dispatched but not
	// yet picked up. Both read zero whenever no sweep is in flight, so
	// deterministic snapshots at rest stay byte-identical.
	workersBusy atomic.Int64
	queueDepth  atomic.Int64

	// boundViolations sums planner.Stats.BoundViolations over every plan
	// this toolkit ran.
	boundViolations atomic.Int64
	// scenarioPanics counts scenarios whose Fingerprint or Run panicked
	// and came back as infeasible rows (see runScenario).
	scenarioPanics atomic.Int64
	// compiledPrograms counts graphs this toolkit lowered with compile,
	// compiledRuns the Program.Run calls it made through run, and
	// skippedRuns plan-point replays skipped because the retime changed
	// no collective's duration (see BaseState.predictOnFabric).
	compiledPrograms atomic.Int64
	compiledRuns     atomic.Int64
	skippedRuns      atomic.Int64
	// classSplits counts retimes whose target fabric split a synthesized
	// price class, so the point was synthesized under the finer partition
	// (see BaseState.predictOnFabric).
	classSplits atomic.Int64

	// cacheOnce lazily opens the disk cache configured by CacheDir; every
	// campaign on this toolkit shares one handle.
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

// compile lowers g for the compiled replay engine under opts, counting
// the lowering.
func (tk *Toolkit) compile(g *execgraph.Graph, opts replay.Options) *replay.Program {
	tk.compiledPrograms.Add(1)
	return replay.Compile(g, opts)
}

// run replays prog under t on s, counting the run. The result aliases s.
func (tk *Toolkit) run(prog *replay.Program, t replay.Timings, s *replay.Scratch) (*replay.Result, error) {
	tk.compiledRuns.Add(1)
	return prog.Run(t, s)
}

// replayProgram replays prog on a pooled scratch and returns its makespan.
// A non-nil retime first rewrites pooled columns seeded with the
// program's recorded durations; nil replays them as recorded.
func (tk *Toolkit) replayProgram(prog *replay.Program, retime func(replay.Timings)) (trace.Dur, error) {
	var t replay.Timings
	if retime != nil {
		buf := tk.acquireTimings(prog)
		defer tk.releaseTimings(buf)
		retime(*buf)
		t = *buf
	}
	s := tk.acquireScratch()
	defer tk.releaseScratch(s)
	res, err := tk.run(prog, t, s)
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}

// acquireScratch takes a pooled replay scratch (allocating on first use).
func (tk *Toolkit) acquireScratch() *replay.Scratch {
	if s, ok := tk.scratchPool.Get().(*replay.Scratch); ok {
		return s
	}
	return replay.NewScratch()
}

// releaseScratch returns a scratch to the pool; results it backs must no
// longer be read.
func (tk *Toolkit) releaseScratch(s *replay.Scratch) { tk.scratchPool.Put(s) }

// acquireTimings returns pooled duration columns sized for prog, seeded
// with its recorded task and group durations.
func (tk *Toolkit) acquireTimings(prog *replay.Program) *replay.Timings {
	t, ok := tk.timingsPool.Get().(*replay.Timings)
	if !ok {
		t = &replay.Timings{}
	}
	t.Dur = append(t.Dur[:0], prog.BaseDur()...)
	t.GroupDur = append(t.GroupDur[:0], prog.BaseGroupDur()...)
	return t
}

// releaseTimings returns duration columns to the pool. The caller must not
// retain them (Result slices never alias them).
func (tk *Toolkit) releaseTimings(t *replay.Timings) { tk.timingsPool.Put(t) }

// EngineStats reports replay-engine activity across every campaign on this
// toolkit: graph lowerings performed, simulations run, and replays skipped
// because a retime changed no duration.
func (tk *Toolkit) EngineStats() (compiledPrograms, compiledRuns, skippedRuns int64) {
	return tk.compiledPrograms.Load(), tk.compiledRuns.Load(), tk.skippedRuns.Load()
}

// Counters reports how many ground-truth profiles and kernel-library
// calibrations this toolkit has performed.
func (tk *Toolkit) Counters() (profiles, libraryBuilds int64) {
	return tk.profiles.Load(), tk.libraryBuilds.Load()
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
// calibrations, replay-engine activity, planner bound violations,
// synthesis price-class splits, and (when configured) the disk cache —
// through the registry as snapshot-time collectors. The collectors read
// the exact same atomics Counters/EngineStats/DiskCacheStats report, so a
// /metrics scrape and the Go API can never disagree.
func (tk *Toolkit) RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Collect(func() []obs.Sample {
		compiled, runs, skipped := tk.EngineStats()
		profiles, calibrations := tk.Counters()
		samples := []obs.Sample{
			{Name: "lumos_profiles_total", Kind: obs.KindCounter, Help: "Ground-truth profiling runs performed.", Value: float64(profiles)},
			{Name: "lumos_calibrations_total", Kind: obs.KindCounter, Help: "Kernel-library calibrations performed (disk-cache hits skip these).", Value: float64(calibrations)},
			{Name: "lumos_engine_compiled_programs_total", Kind: obs.KindCounter, Help: "Graphs lowered into compiled replay programs.", Value: float64(compiled)},
			{Name: "lumos_engine_runs_total", Kind: obs.KindCounter, Help: "Replay simulations run on the compiled engine.", Value: float64(runs)},
			{Name: "lumos_engine_skipped_runs_total", Kind: obs.KindCounter, Help: "Plan-point replays skipped because the retime changed no collective's duration.", Value: float64(skipped)},
			{Name: "lumos_sweep_workers_busy", Kind: obs.KindGauge, Help: "Sweep worker-pool occupancy: scenarios being evaluated right now.", Value: float64(tk.workersBusy.Load())},
			{Name: "lumos_sweep_queue_depth", Kind: obs.KindGauge, Help: "Scenarios dispatched to the sweep worker pool but not yet picked up.", Value: float64(tk.queueDepth.Load())},
			{Name: "lumos_planner_bound_violations_total", Kind: obs.KindCounter, Help: "Simulated plan points whose analytic bound exceeded their simulated iteration time.", Value: float64(tk.boundViolations.Load())},
			{Name: "lumos_scenario_panics_total", Kind: obs.KindCounter, Help: "Scenarios whose evaluation panicked and came back as infeasible rows.", Value: float64(tk.scenarioPanics.Load())},
			{Name: "lumos_synth_class_splits_total", Kind: obs.KindCounter, Help: "Retimes whose target fabric split a synthesized price class, so the point was synthesized under the finer partition.", Value: float64(tk.classSplits.Load())},
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
	if f.Capacity() < world {
		f = f.WithCapacity(world)
	}
	return f
}

// simConfigFor binds the toolkit's fabric into a ground-truth simulator
// configuration.
func (tk *Toolkit) simConfigFor(world int, seed uint64) cluster.SimConfig {
	simCfg := cluster.DefaultSimConfig(world, seed)
	f := tk.fabricFor(world)
	simCfg.Fabric = f
	simCfg.Oracle = kernelmodel.NewOracleFabric(f)
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
	sp := obs.TracerFrom(ctx).Start("pipeline", "profile")
	sp.Annotate("world", world)
	defer sp.End()
	simCfg := tk.simConfigFor(world, seed)
	return cluster.Run(cfg, simCfg)
}

// BuildGraph constructs the execution graph from traces (Section 3.3).
func (tk *Toolkit) BuildGraph(ctx context.Context, m *trace.Multi) (*execgraph.Graph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return execgraph.Build(m, execgraph.DefaultOptions())
}

// ReplayResult is a replayed execution's derived metrics.
type ReplayResult struct {
	// Iteration is the simulated per-iteration time.
	Iteration trace.Dur
	// Breakdown is the average per-rank execution breakdown.
	Breakdown analysis.Breakdown
}

// Replay simulates an execution graph (Section 3.5, Algorithm 1) on the
// compiled engine, the same counted, trace-free way a campaign replays its
// base (see replayBase).
func (tk *Toolkit) Replay(ctx context.Context, g *execgraph.Graph) (*ReplayResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return tk.replayBase(g, replay.DefaultOptions())
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
// assumptions (dpro.BuildOptions, dpro.ReplayOptions), for comparison.
func (tk *Toolkit) ReplayDPRO(ctx context.Context, m *trace.Multi) (*ReplayResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g, err := execgraph.Build(m, dpro.BuildOptions())
	if err != nil {
		return nil, err
	}
	return tk.replayBase(g, dpro.ReplayOptions())
}

// replayBase compiles g under opts and replays it once on a pooled
// scratch, reading the iteration time and breakdown straight off the
// replay's Start/End columns before the scratch (which owns them) goes
// back to the pool. No trace is materialized, and the compiled program is
// dropped rather than pinned on a campaign: kernel what-ifs lower their
// own copy on demand (BaseState.program). A campaign's base point and
// every single-shot replay take this path.
func (tk *Toolkit) replayBase(g *execgraph.Graph, opts replay.Options) (*ReplayResult, error) {
	s := tk.acquireScratch()
	defer tk.releaseScratch(s)
	res, err := tk.run(tk.compile(g, opts), replay.Timings{}, s)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{Iteration: res.Makespan, Breakdown: analysis.ReplayBreakdown(g, res.Start, res.End)}, nil
}

// WhatIfScale estimates the makespan if kernels matched by the predicate
// ran at the given duration factor (Section 5's what-if analysis): it
// compiles g and replays it under scaled pooled duration columns.
func (tk *Toolkit) WhatIfScale(ctx context.Context, g *execgraph.Graph, match func(*execgraph.Task) bool, factor float64) (trace.Dur, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return tk.replayProgram(tk.compile(g, replay.DefaultOptions()), func(t replay.Timings) {
		analysis.ScaleDurations(g, t, match, factor)
	})
}

// WhatIfFusion estimates the benefit of fusing consecutive eligible
// kernels (Section 3.4's motivating example): it compiles g, replays it as
// recorded for the baseline, then replays the fused duration columns.
func (tk *Toolkit) WhatIfFusion(ctx context.Context, g *execgraph.Graph, opts analysis.FusionOpts) (analysis.FusionReport, error) {
	if err := ctx.Err(); err != nil {
		return analysis.FusionReport{}, err
	}
	prog := tk.compile(g, replay.DefaultOptions())
	base, err := tk.replayProgram(prog, nil)
	if err != nil {
		return analysis.FusionReport{}, err
	}
	rep := analysis.FusionReport{Baseline: base}
	rep.Fused, err = tk.replayProgram(prog, func(t replay.Timings) {
		rep.FusedGroups, rep.KernelsRemoved = analysis.ApplyFusion(g, t, opts)
	})
	return rep, err
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

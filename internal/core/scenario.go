// Scenario/Sweep engine: the profile-once, predict-many campaign API.
//
// The paper's core value proposition is cheap what-if exploration: collect
// one profile, then predict many alternative deployments without touching a
// cluster. A Scenario is one point in that design space — a new parallelism
// mapping, a new architecture, or a kernel-level counterfactual — and
// Evaluate fans a whole campaign of them out over a bounded worker pool
// against shared calibration state (one graph, one kernel library, one
// fitted model), returning deterministic results ranked by predicted
// iteration time.
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"lumos/internal/analysis"
	"lumos/internal/execgraph"
	"lumos/internal/kernelmodel"
	"lumos/internal/manip"
	"lumos/internal/model"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/planner"
	"lumos/internal/replay"
	"lumos/internal/scache"
	"lumos/internal/schedule"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// BaseState is the shared, read-only state of a sweep: the base deployment,
// the execution graph built from its profile, the replayed baseline, and
// the calibration artifacts every scenario prices kernels against. The
// profile itself is not retained. Only
// Toolkit.Prepare and PrepareTraces build one, once per campaign; it may
// be reused across multiple Evaluate calls, and scenarios must treat it
// as immutable.
type BaseState struct {
	// Config is the deployment the traces were collected under.
	Config parallel.Config
	// Graph is the execution graph built from the profile.
	Graph *execgraph.Graph
	// Iteration is the replayed base iteration time; scenario speedups are
	// relative to it.
	Iteration trace.Dur
	// Breakdown is the replayed base execution breakdown.
	Breakdown analysis.Breakdown
	// Library holds measured kernel durations from the profile.
	Library *manip.Library
	// Fitted is the trace-fitted kernel performance model for kernels the
	// library cannot price.
	Fitted *kernelmodel.Fitted
	// Fabric is the interconnect model calibration was performed against.
	// It is bound once per campaign and shared by every scenario.
	Fabric topology.Fabric

	// tk is the toolkit that prepared this state: it owns the replay
	// pools, the engine counters, the pricer and the cache policy.
	tk *Toolkit

	// memo caches results of fingerprintable scenarios for the lifetime of
	// this campaign state, so duplicate grid points across Evaluate calls
	// are free.
	memo     sync.Map // string → ScenarioResult
	memoHits atomic.Int64
	memoSize atomic.Int64

	// baseProg is the campaign base graph lowered for the compiled replay
	// engine, compiled at most once and shared by every worker's kernel
	// what-if; baseProgErr records a lowering that panicked.
	baseProgOnce sync.Once
	baseProg     *replay.Program
	baseProgErr  error

	// structs caches synthesized execution graphs by structural identity
	// (the full target config: same schedule, stages, microbatches ⇒ same
	// slot DAG and base-fabric durations), so sibling planner points that
	// differ only in fabric or degradation re-time one shared graph
	// instead of re-synthesizing it. Bounded by structCacheCap;
	// structCount tracks admissions.
	structs     sync.Map // string → *structEntry
	structCount atomic.Int64

	// fingerprint digests the profile and every binding scenario results
	// depend on; it is the profile half of scenario disk-cache keys. Empty
	// when no disk cache is configured.
	fingerprint string
	// disk is the toolkit's content-addressed cache, layered under the
	// memo: the memo serves within-process repeats, the disk serves
	// cross-process ones. Nil when disabled.
	disk     *scache.Cache
	diskHits atomic.Int64
	diskMiss atomic.Int64
}

// Fingerprint identifies the profile and bindings this campaign state was
// built from; empty when no disk cache is configured.
func (b *BaseState) Fingerprint() string { return b.fingerprint }

// CacheStats is the two-level cache activity of one campaign state plus the
// process-wide disk store it shares.
type CacheStats struct {
	// MemoHits and MemoEntries are the in-memory layer: scenario results
	// served by the memo and results stored in it.
	MemoHits, MemoEntries int64
	// DiskHits and DiskMisses count this campaign state's scenario lookups
	// served by / absent from the disk layer.
	DiskHits, DiskMisses int64
	// CompiledPrograms counts graph lowerings for the replay engine,
	// CompiledRuns counts simulations, and SkippedRuns counts plan-point
	// replays skipped because the retime changed no duration. The counters
	// are toolkit-wide (shared across campaign states on one toolkit, like
	// the Disk store).
	CompiledPrograms, CompiledRuns, SkippedRuns int64
	// Disk reports the shared on-disk store (all campaigns and calibration
	// entries in this process); zero when no disk cache is configured.
	Disk scache.Stats
}

// CacheStats reports the full two-level cache counters for this campaign
// state.
func (b *BaseState) CacheStats() CacheStats {
	s := CacheStats{
		MemoHits:    b.memoHits.Load(),
		MemoEntries: b.memoSize.Load(),
		DiskHits:    b.diskHits.Load(),
		DiskMisses:  b.diskMiss.Load(),
	}
	if b.disk != nil {
		s.Disk = b.disk.Stats()
	}
	s.CompiledPrograms, s.CompiledRuns, s.SkippedRuns = b.tk.EngineStats()
	return s
}

// RegisterMetrics exposes this campaign state's cache counters — memo hits
// and entries, scenario disk hits/misses, structurally shared graphs —
// through the registry as a snapshot-time collector. Label pairs (e.g.
// "profile", name) distinguish campaign states sharing one registry.
func (b *BaseState) RegisterMetrics(r *obs.Registry, labelPairs ...string) {
	if r == nil {
		return
	}
	labels := obs.RenderLabels(labelPairs...)
	r.Collect(func() []obs.Sample {
		return []obs.Sample{
			{Name: "lumos_memo_hits_total", Labels: labels, Kind: obs.KindCounter, Help: "Scenario results served by the in-memory memo.", Value: float64(b.memoHits.Load())},
			{Name: "lumos_memo_entries", Labels: labels, Kind: obs.KindGauge, Help: "Scenario results memoized in memory.", Value: float64(b.memoSize.Load())},
			{Name: "lumos_scenario_disk_hits_total", Labels: labels, Kind: obs.KindCounter, Help: "Scenario lookups served by the disk cache.", Value: float64(b.diskHits.Load())},
			{Name: "lumos_scenario_disk_misses_total", Labels: labels, Kind: obs.KindCounter, Help: "Scenario lookups missing the disk cache.", Value: float64(b.diskMiss.Load())},
			{Name: "lumos_struct_shared_graphs", Labels: labels, Kind: obs.KindGauge, Help: "Synthesized graphs held for structural sharing.", Value: float64(b.structCount.Load())},
		}
	})
}

// program returns the campaign base graph compiled for the replay engine,
// lowering it at most once and sharing the program across sweep workers.
func (b *BaseState) program() (*replay.Program, error) {
	b.baseProgOnce.Do(func() {
		defer recordPanic(&b.baseProgErr, "base compile")
		b.baseProg = b.tk.compile(b.Graph, replay.DefaultOptions())
	})
	return b.baseProg, b.baseProgErr
}

// whatIf replays the campaign base program under pooled duration columns
// that retime rewrites, and returns the makespan. Kernel what-ifs answer
// through it, the same way plan points retime a shared program.
func (b *BaseState) whatIf(retime func(replay.Timings)) (trace.Dur, error) {
	prog, err := b.program()
	if err != nil {
		return 0, err
	}
	return b.tk.replayProgram(prog, retime)
}

// Fingerprinter is an optional Scenario extension: scenarios whose outcome
// is a pure function of the campaign state and a stable key are memoized by
// the sweep engine. Fingerprint returns ok=false when the scenario cannot
// be keyed (e.g. it closes over an arbitrary predicate), opting out of
// caching.
type Fingerprinter interface {
	Fingerprint(base *BaseState) (key string, ok bool)
}

// ScenarioResult is the structured outcome of one evaluated scenario.
type ScenarioResult struct {
	// Name identifies the scenario within its sweep.
	Name string
	// Kind classifies the scenario: "baseline", "deploy", "arch",
	// "schedule", "fabric", "plan", "whatif-scale" or "whatif-fusion".
	Kind string
	// Target is the deployment the scenario describes. For what-if
	// scenarios it equals the base deployment.
	Target parallel.Config
	// World is the number of GPUs the target occupies.
	World int
	// Iteration is the predicted per-iteration time.
	Iteration trace.Dur
	// Breakdown decomposes the predicted execution (zero for what-if
	// scenarios, which only re-time the base graph).
	Breakdown analysis.Breakdown
	// Speedup is base iteration / predicted iteration (>1 is faster).
	Speedup float64
	// CostDelta is the relative change in GPU-seconds per iteration vs the
	// base (+0.5 means the scenario costs 50% more GPU time per step).
	CostDelta float64
	// LibraryHits/LibraryMisses report how many kernels reused measured
	// durations vs were priced by the fitted model (deploy scenarios only).
	LibraryHits, LibraryMisses int
	// Detail is an optional scenario-specific annotation.
	Detail string
	// SharedStructure reports that the prediction re-timed a structurally
	// shared execution graph (same slot DAG, different durations) instead
	// of synthesizing and binding its own.
	SharedStructure bool
	// Err is non-empty when the scenario is infeasible (e.g. a
	// tensor-parallel change, which the paper's manipulation scope
	// rejects) or failed; infeasible scenarios rank last.
	Err string
}

// Feasible reports whether the scenario produced a prediction.
func (r ScenarioResult) Feasible() bool { return r.Err == "" }

// Scenario is one point in a what-if campaign. Implementations must be safe
// for concurrent use and must not mutate the BaseState.
type Scenario interface {
	// Name identifies the scenario in ranked output.
	Name() string
	// Run evaluates the scenario against the shared base state.
	Run(ctx context.Context, base *BaseState) (ScenarioResult, error)
}

// --- Scenario implementations ---------------------------------------------

// deployScenario predicts a manipulated deployment via the shared library.
type deployScenario struct {
	name      string
	kind      string
	transform func(parallel.Config) parallel.Config
}

func (s *deployScenario) Name() string { return s.name }

// Fingerprint keys a deploy scenario by its kind and derived target
// deployment: two grid points that resolve to the same target are the same
// prediction. The kind is part of the key so scenarios of different kinds
// that share a target (e.g. an arch variant spelled as a full deployment)
// never serve each other's results — cached hits must be indistinguishable
// from fresh ones under any worker count.
func (s *deployScenario) Fingerprint(b *BaseState) (string, bool) {
	return fmt.Sprintf("%s|%+v", s.kind, s.transform(b.Config)), true
}

func (s *deployScenario) Run(ctx context.Context, b *BaseState) (ScenarioResult, error) {
	target := s.transform(b.Config)
	res := ScenarioResult{
		Name:   s.name,
		Kind:   s.kind,
		Target: target,
		World:  target.Map.WorldSize(),
	}
	req := manip.Request{Base: b.Config, Target: target}
	if err := req.Validate(); err != nil {
		res.Err = err.Error()
		return res, nil
	}
	// Direct graph synthesis: the target's execution graph is generated
	// straight from the deployment, with no trace materialized or re-parsed
	// — served from (and seeding) the structural graph cache, so repeat
	// evaluations of one target on this campaign state share the
	// synthesized DAG with each other and with planner points (synthesis
	// is deterministic, so sharing is bit-identical to re-synthesizing).
	e, err := b.synthesizeStructural(req, obs.SpanFrom(ctx), nil)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	out := e.out
	res.Iteration = out.Iteration
	res.Breakdown = analysis.GraphBreakdown(out.Graph)
	res.LibraryHits = out.LibraryHits
	res.LibraryMisses = out.LibraryMisses
	return res, nil
}

// DeployScenario wraps a config transform as a scenario: the target
// deployment is derived from the sweep's base at evaluation time, so one
// scenario value can be evaluated against different bases.
func DeployScenario(name string, transform func(parallel.Config) parallel.Config) Scenario {
	return &deployScenario{name: name, kind: "deploy", transform: transform}
}

// ScaleDPScenario scales data parallelism to dp (Section 3.4).
func ScaleDPScenario(dp int) Scenario {
	return &deployScenario{
		name: fmt.Sprintf("dp=%d", dp),
		kind: "deploy",
		transform: func(base parallel.Config) parallel.Config {
			return manip.ScaleDP(base, dp).Target
		},
	}
}

// ScalePPScenario re-stages the pipeline to pp stages (Section 3.4).
func ScalePPScenario(pp int) Scenario {
	return &deployScenario{
		name: fmt.Sprintf("pp=%d", pp),
		kind: "deploy",
		transform: func(base parallel.Config) parallel.Config {
			return manip.ScalePP(base, pp).Target
		},
	}
}

// Scale3DScenario changes PP and DP simultaneously (Section 3.4).
func Scale3DScenario(pp, dp int) Scenario {
	return &deployScenario{
		name: fmt.Sprintf("pp=%d,dp=%d", pp, dp),
		kind: "deploy",
		transform: func(base parallel.Config) parallel.Config {
			return manip.Scale3D(base, pp, dp).Target
		},
	}
}

// DeploymentScenario targets an explicit TP×PP×DP mapping (and optionally a
// different architecture) while keeping the base's other knobs. TP changes
// are detected at evaluation time and reported as infeasible, matching the
// paper's manipulation scope.
func DeploymentScenario(arch model.Arch, tp, pp, dp int) Scenario {
	return &deployScenario{
		name: fmt.Sprintf("%s %dx%dx%d", arch.Name, tp, pp, dp),
		kind: "deploy",
		transform: func(base parallel.Config) parallel.Config {
			target := base
			target.Arch = arch
			target.Map = topology.Mapping{TP: tp, PP: pp, DP: dp}
			return target
		},
	}
}

// ArchScenario replaces the architecture while keeping the deployment.
func ArchScenario(arch model.Arch) Scenario {
	return &deployScenario{
		name: fmt.Sprintf("arch=%s", arch.Name),
		kind: "arch",
		transform: func(base parallel.Config) parallel.Config {
			target := base
			target.Arch = arch
			return target
		},
	}
}

// kernelScaleScenario re-times matched kernels on the base graph.
type kernelScaleScenario struct {
	name   string
	match  func(*execgraph.Task) bool
	factor float64
	// fp is the memoization key; empty for arbitrary predicates, which are
	// not fingerprintable.
	fp string
}

func (s *kernelScaleScenario) Name() string { return s.name }

func (s *kernelScaleScenario) Fingerprint(*BaseState) (string, bool) {
	return s.fp, s.fp != ""
}

func (s *kernelScaleScenario) Run(ctx context.Context, b *BaseState) (ScenarioResult, error) {
	res := ScenarioResult{
		Name:   s.name,
		Kind:   "whatif-scale",
		Target: b.Config,
		World:  b.Config.Map.WorldSize(),
	}
	rsp := obs.SpanFrom(ctx).Child("replay")
	iter, err := b.whatIf(func(t replay.Timings) {
		analysis.ScaleDurations(b.Graph, t, s.match, s.factor)
	})
	rsp.End()
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	res.Iteration = iter
	res.Detail = fmt.Sprintf("matched kernels scaled x%.2f", s.factor)
	return res, nil
}

// KernelScaleScenario estimates the makespan if kernels matched by the
// predicate ran at the given duration factor (Section 5's what-if analysis).
func KernelScaleScenario(name string, match func(*execgraph.Task) bool, factor float64) Scenario {
	return &kernelScaleScenario{name: name, match: match, factor: factor}
}

// ClassScaleScenario is KernelScaleScenario for one kernel class.
func ClassScaleScenario(class trace.KernelClass, factor float64) Scenario {
	return &kernelScaleScenario{
		name:   fmt.Sprintf("%s x%.2f", class, factor),
		match:  func(t *execgraph.Task) bool { return t.Class == class },
		factor: factor,
		fp:     fmt.Sprintf("classscale|%d|%g", class, factor),
	}
}

// fusionScenario estimates the operator-fusion counterfactual.
type fusionScenario struct {
	name string
	opts analysis.FusionOpts
}

func (s *fusionScenario) Name() string { return s.name }

func (s *fusionScenario) Fingerprint(*BaseState) (string, bool) {
	return fmt.Sprintf("fusion|%+v", s.opts), true
}

func (s *fusionScenario) Run(ctx context.Context, b *BaseState) (ScenarioResult, error) {
	res := ScenarioResult{
		Name:   s.name,
		Kind:   "whatif-fusion",
		Target: b.Config,
		World:  b.Config.Map.WorldSize(),
	}
	// The unfused baseline is the campaign's replayed base point; only the
	// fused counterfactual needs a simulation here.
	rsp := obs.SpanFrom(ctx).Child("replay")
	var groups, removed int
	iter, err := b.whatIf(func(t replay.Timings) {
		groups, removed = analysis.ApplyFusion(b.Graph, t, s.opts)
	})
	rsp.End()
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	res.Iteration = iter
	res.Detail = fmt.Sprintf("%d kernel runs merged, %d kernels removed", groups, removed)
	return res, nil
}

// FusionScenario estimates the benefit of fusing consecutive elementwise/
// norm/softmax kernels (the "new operator fusion pattern" scenario from
// Section 3.4) without implementing the fused kernels.
func FusionScenario() Scenario {
	return &fusionScenario{name: "fuse elementwise/norm", opts: analysis.DefaultFusionOpts()}
}

// fabricScenario re-predicts the base deployment on a different (or
// degraded) fabric through BaseState.predictOnFabric, the path plan points
// take too: compute kernels keep their durations, every collective is
// re-priced by its target/campaign cost ratio, and a replay of the shared
// graph propagates the new costs.
type fabricScenario struct {
	name string
	// fabric is the target interconnect; nil re-uses the campaign's bound
	// fabric (degrade-only what-ifs).
	fabric topology.Fabric
	// degrade scales per-tier bandwidth (see topology.Degrade); empty means
	// no degradation.
	degrade []float64
}

func (s *fabricScenario) Name() string { return s.name }

// Fingerprint keys the scenario by its resolved (sized and degraded)
// fabric, so two spellings of the same fabric share one prediction.
func (s *fabricScenario) Fingerprint(b *BaseState) (string, bool) {
	f, err := planner.ResolveFabric(s.point(b), b.Fabric)
	if err != nil {
		return "", false
	}
	return "fabric|" + fabricFingerprint(f), true
}

// point places the base deployment on the scenario's fabric as a planner
// point, so the fabric resolves exactly as a plan point's does.
func (s *fabricScenario) point(b *BaseState) planner.Point {
	m := b.Config.Map
	return planner.Point{TP: m.TP, PP: m.PP, DP: m.DP, Fabric: s.fabric, Degrade: s.degrade}
}

func (s *fabricScenario) Run(ctx context.Context, b *BaseState) (ScenarioResult, error) {
	res := ScenarioResult{
		Name:   s.name,
		Kind:   "fabric",
		Target: b.Config,
		World:  b.Config.Map.WorldSize(),
	}
	f, err := planner.ResolveFabric(s.point(b), b.Fabric)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	pred, err := b.predictOnFabric(manip.Request{Base: b.Config, Target: b.Config}, f, true, obs.SpanFrom(ctx))
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	res.Iteration = pred.iteration
	res.Breakdown = pred.breakdown
	res.LibraryHits = pred.out.LibraryHits
	res.LibraryMisses = pred.out.LibraryMisses
	res.SharedStructure = pred.retimed
	res.Detail = fmt.Sprintf("fabric %s, %d comm groups repriced", f.FabricName(), pred.repriced)
	return res, nil
}

// FabricScenario predicts the base deployment's iteration time on a
// different interconnect — "what if this job ran on NVL72 racks?" — by
// re-pricing communication for the target fabric while keeping measured
// compute durations.
func FabricScenario(name string, f topology.Fabric) Scenario {
	if name == "" && f != nil {
		name = "fabric=" + f.FabricName()
	}
	return &fabricScenario{name: name, fabric: f}
}

// DegradeLinksScenario predicts the base deployment under degraded links:
// per-tier bandwidth is scaled by the given factors on the campaign's own
// fabric (see topology.Degrade). DegradeLinksScenario(1, 0.5) halves every
// tier beyond the innermost.
func DegradeLinksScenario(factors ...float64) Scenario {
	return &fabricScenario{
		name:    fmt.Sprintf("degrade=%v", factors),
		degrade: factors,
	}
}

// NetworkDegradeFactors spells the sweep/plan convention for a single
// network bandwidth factor: it scales every tier beyond the innermost
// domain (intra-domain NVLink stays nominal), and factor 1 is the
// undegraded fabric (nil factors). The `-degrade` flags of both CLIs and
// FabricSweep all map through here.
func NetworkDegradeFactors(factor float64) []float64 {
	if factor == 1 {
		return nil
	}
	return []float64{1, factor}
}

// FabricSweep enumerates a fabric × degradation grid as scenarios, the
// network analogue of GridSweep: every fabric (nil = the campaign's bound
// fabric) is evaluated at every network bandwidth factor. A factor scales
// every tier beyond the innermost domain — the degraded-network what-if;
// intra-domain NVLink stays nominal (use DegradeLinksScenario for explicit
// per-tier factors). Factor 1 is the undegraded fabric.
func FabricSweep(fabrics []topology.Fabric, degrade []float64) []Scenario {
	if len(fabrics) == 0 {
		fabrics = []topology.Fabric{nil}
	}
	if len(degrade) == 0 {
		degrade = []float64{1}
	}
	var scenarios []Scenario
	for _, f := range fabrics {
		base := "base-fabric"
		if f != nil {
			base = f.FabricName()
		}
		for _, d := range degrade {
			sc := &fabricScenario{name: base, fabric: f, degrade: NetworkDegradeFactors(d)}
			if d != 1 {
				sc.name = fmt.Sprintf("%s bw*%g", base, d)
			}
			scenarios = append(scenarios, sc)
		}
	}
	return scenarios
}

// infeasibleScenario reports a construction-time error as an infeasible
// result, so one bad spec cannot sink a campaign. kind classifies the
// result like its feasible siblings would be.
type infeasibleScenario struct {
	name string
	kind string
	err  string
}

func (s infeasibleScenario) Name() string { return s.name }

func (s infeasibleScenario) Run(context.Context, *BaseState) (ScenarioResult, error) {
	return ScenarioResult{Name: s.name, Kind: s.kind, Err: s.err}, nil
}

// InfeasibleScenario returns a scenario that always reports the given
// error under the given kind — campaigns embed construction-time failures
// as ranked infeasible rows instead of failing outright.
func InfeasibleScenario(name, kind, errMsg string) Scenario {
	return infeasibleScenario{name: name, kind: kind, err: errMsg}
}

// ScheduleScenario re-predicts the base deployment under a different
// pipeline schedule — "would interleaving or a zero-bubble schedule shrink
// my bubble?" — by regenerating the execution graph with the schedule's
// slot structure (interleaved chunk P2P, split B/W backward) while
// everything else, including the kernel calibration, is shared with the
// campaign. spec is a schedule spec name: "1f1b", "gpipe", "interleaved[V]"
// or "zb-h1"; unknown names evaluate as infeasible with the full menu.
func ScheduleScenario(spec string) Scenario {
	name := "schedule=" + strings.ToLower(strings.TrimSpace(spec))
	s, err := schedule.Parse(spec)
	if err != nil {
		return infeasibleScenario{name: name, kind: "schedule", err: err.Error()}
	}
	return &deployScenario{
		name: "schedule=" + s.Name(),
		kind: "schedule",
		transform: func(base parallel.Config) parallel.Config {
			target := base
			target.Schedule = s.Policy
			target.VirtualStages = s.Virtual
			return target
		},
	}
}

// ScheduleSweep enumerates schedule scenarios, the pipeline-schedule
// analogue of FabricSweep: one scenario per spec name, each re-predicting
// the base deployment under that schedule against shared calibration.
func ScheduleSweep(specs []string) []Scenario {
	scenarios := make([]Scenario, 0, len(specs))
	for _, spec := range specs {
		scenarios = append(scenarios, ScheduleScenario(spec))
	}
	return scenarios
}

// baselineScenario reports the base point itself, so it appears in rankings.
type baselineScenario struct{}

func (baselineScenario) Name() string { return "baseline" }

func (baselineScenario) Fingerprint(*BaseState) (string, bool) { return "baseline", true }

func (baselineScenario) Run(_ context.Context, b *BaseState) (ScenarioResult, error) {
	return ScenarioResult{
		Name:      "baseline",
		Kind:      "baseline",
		Target:    b.Config,
		World:     b.Config.Map.WorldSize(),
		Iteration: b.Iteration,
		Breakdown: b.Breakdown,
	}, nil
}

// BaselineScenario ranks the base deployment alongside its alternatives.
func BaselineScenario() Scenario { return baselineScenario{} }

// --- Sweep engine ----------------------------------------------------------

// SweepResult is a completed campaign: the base point plus every scenario,
// ranked by predicted iteration time (fastest first, infeasible last).
type SweepResult struct {
	// Base is the replayed base point the scenarios are relative to.
	Base ScenarioResult
	// Results holds every scenario outcome in rank order.
	Results []ScenarioResult
}

// Top returns the k best-ranked feasible results.
func (s *SweepResult) Top(k int) []ScenarioResult {
	n := 0
	for n < len(s.Results) && s.Results[n].Feasible() {
		n++
	}
	if k > n {
		k = n
	}
	return s.Results[:k]
}

// Best returns the top-ranked feasible result.
func (s *SweepResult) Best() (ScenarioResult, bool) {
	if len(s.Results) == 0 || !s.Results[0].Feasible() {
		return ScenarioResult{}, false
	}
	return s.Results[0], true
}

// Prepare profiles the base deployment once and builds the shared campaign
// state: execution graph, replayed baseline, kernel library and fitted
// kernel model.
func (tk *Toolkit) Prepare(ctx context.Context, cfg parallel.Config, seed uint64) (*BaseState, error) {
	traces, err := tk.Profile(ctx, cfg, seed)
	if err != nil {
		return nil, err
	}
	return tk.PrepareTraces(ctx, cfg, traces)
}

// PrepareTraces builds the shared campaign state from an existing profile
// (e.g. loaded Kineto JSON) of the base deployment. With a disk cache
// configured (WithDiskCache), the kernel calibration is reloaded from disk
// when an earlier process already calibrated the same (trace set, fabric)
// pair, and the returned state serves fingerprintable scenarios through
// the disk layer as well as the in-memory memo.
func (tk *Toolkit) PrepareTraces(ctx context.Context, cfg parallel.Config, m *trace.Multi) (*BaseState, error) {
	sp := obs.TracerFrom(ctx).Start("pipeline", "prepare")
	sp.Annotate("ranks", len(m.Ranks))
	defer sp.End()
	bg := sp.Child("build-graph")
	g, err := tk.BuildGraph(ctx, m)
	bg.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rp := sp.Child("replay")
	rep, err := tk.replayBase(g, replay.DefaultOptions())
	rp.End()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	f := tk.fabricFor(cfg.Map.WorldSize())

	var traceFP, profileFP string
	var disk *scache.Cache
	if tk.opts.CacheDir != "" {
		disk, err = tk.diskCache()
		if err != nil {
			return nil, fmt.Errorf("core: opening disk cache: %w", err)
		}
		traceFP = trace.Fingerprint(m)
		profileFP = profileFingerprint(cfg, traceFP, f)
	}
	lib, fitted, err := tk.calibrationFor(ctx, m, f, traceFP)
	if err != nil {
		return nil, err
	}
	return &BaseState{
		Config:      cfg,
		Graph:       g,
		Iteration:   rep.Iteration,
		Breakdown:   rep.Breakdown,
		Library:     lib,
		Fitted:      fitted,
		Fabric:      f,
		tk:          tk,
		fingerprint: profileFP,
		disk:        disk,
	}, nil
}

// Evaluate runs a what-if campaign: profile the base deployment once (with
// the toolkit's seed), build the graph and kernel library once, then
// evaluate every scenario against that shared state over a bounded worker
// pool. Results are deterministic and independent of the worker count.
func (tk *Toolkit) Evaluate(ctx context.Context, base parallel.Config, scenarios ...Scenario) (*SweepResult, error) {
	st, err := tk.Prepare(ctx, base, tk.opts.Seed)
	if err != nil {
		return nil, err
	}
	return tk.EvaluateState(ctx, st, scenarios...)
}

// EvaluateTraces is Evaluate over an already-collected base profile.
func (tk *Toolkit) EvaluateTraces(ctx context.Context, base parallel.Config, m *trace.Multi, scenarios ...Scenario) (*SweepResult, error) {
	st, err := tk.PrepareTraces(ctx, base, m)
	if err != nil {
		return nil, err
	}
	return tk.EvaluateState(ctx, st, scenarios...)
}

// EvaluateState fans scenarios out over the worker pool against prepared
// base state. The state may be reused across calls.
func (tk *Toolkit) EvaluateState(ctx context.Context, base *BaseState, scenarios ...Scenario) (*SweepResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	sp := obs.TracerFrom(ctx).Start("pipeline", "sweep")
	sp.Annotate("scenarios", len(scenarios))
	defer sp.End()
	results := make([]ScenarioResult, len(scenarios))
	workers := tk.concurrency()
	if workers > len(scenarios) {
		workers = len(scenarios)
	}
	if workers < 1 {
		workers = 1
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	tk.queueDepth.Add(int64(len(scenarios)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				tk.queueDepth.Add(-1)
				tk.workersBusy.Add(1)
				results[i] = runScenario(ctx, scenarios[i], base)
				tk.workersBusy.Add(-1)
			}
		}()
	}
	dispatched := 0
dispatch:
	for i := range scenarios {
		select {
		case idx <- i:
			dispatched++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	// Cancelled dispatches never reach a worker; drain them from the gauge
	// so it reads zero whenever no sweep is in flight.
	tk.queueDepth.Add(int64(dispatched - len(scenarios)))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	baseCost := float64(base.Config.Map.WorldSize()) * float64(base.Iteration)
	for i := range results {
		r := &results[i]
		if !r.Feasible() || r.Iteration <= 0 {
			continue
		}
		r.Speedup = float64(base.Iteration) / float64(r.Iteration)
		if baseCost > 0 {
			r.CostDelta = float64(r.World)*float64(r.Iteration)/baseCost - 1
		}
	}
	rank(results)
	return &SweepResult{
		Base: ScenarioResult{
			Name:      "base",
			Kind:      "baseline",
			Target:    base.Config,
			World:     base.Config.Map.WorldSize(),
			Iteration: base.Iteration,
			Breakdown: base.Breakdown,
			Speedup:   1,
		},
		Results: results,
	}, nil
}

// runScenario evaluates one scenario, converting hard errors and panics
// into infeasible results so a single bad point cannot sink the campaign.
// Scenarios run on worker goroutines that net/http's handler recovery does
// not cover, so a panic in Fingerprint or Run is recovered here: the row
// reads "internal: scenario panicked: …", the scenario span carries the
// stack, lumos_scenario_panics_total counts it, and neither cache level
// stores it.
// Fingerprintable scenarios are served through two cache levels on the
// campaign state: the in-memory memo (duplicate grid points within one
// process) and, when configured, the content-addressed disk cache
// (duplicate points across processes, users and restarts). A disk hit
// seeds the memo so subsequent repeats stay in memory; fresh feasible
// results are written through to both levels.
func runScenario(ctx context.Context, sc Scenario, base *BaseState) (res ScenarioResult) {
	if err := ctx.Err(); err != nil {
		return ScenarioResult{Name: sc.Name(), Err: err.Error()}
	}

	sp := obs.TracerFrom(ctx).Start("scenario", sc.Name())
	if sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			sp.Annotate("panic", fmt.Sprint(r))
			sp.Annotate("stack", string(debug.Stack()))
			base.tk.scenarioPanics.Add(1)
			res = ScenarioResult{Name: sc.Name(), Err: fmt.Sprintf("internal: scenario panicked: %v", r)}
		}
	}()

	var key, diskKey string
	if fp, ok := sc.(Fingerprinter); ok {
		if k, ok := fp.Fingerprint(base); ok {
			key = k
			if cached, ok := base.memo.Load(key); ok {
				base.memoHits.Add(1)
				sp.Annotate("cache", "memo")
				res := cached.(ScenarioResult)
				// The cached prediction may have been produced under a
				// different display name (e.g. two grid spellings of the
				// same target); keep this scenario's.
				res.Name = sc.Name()
				return res
			}
			if base.disk != nil && base.fingerprint != "" {
				diskKey = scenarioDiskKey(base.fingerprint, key)
				if res, ok := diskLoad(ctx, base.disk, diskKey); ok {
					base.diskHits.Add(1)
					sp.Annotate("cache", "disk")
					if _, loaded := base.memo.LoadOrStore(key, res); !loaded {
						base.memoSize.Add(1)
					}
					res.Name = sc.Name()
					return res
				}
				base.diskMiss.Add(1)
			}
		}
	}

	res, err := sc.Run(ctx, base)
	if err != nil {
		return ScenarioResult{Name: sc.Name(), Err: err.Error()}
	}
	if res.Name == "" {
		res.Name = sc.Name()
	}
	if sp != nil {
		if res.Feasible() {
			sp.Annotate("iteration_ms", float64(res.Iteration)/1e6)
		} else {
			sp.Annotate("infeasible", res.Err)
		}
	}
	if key != "" && res.Feasible() {
		if _, loaded := base.memo.LoadOrStore(key, res); !loaded {
			base.memoSize.Add(1)
		}
		if diskKey != "" {
			diskStore(ctx, base.disk, diskKey, res)
		}
	}
	return res
}

// rank orders results fastest-first with name tiebreaks; infeasible
// scenarios sort last by name. The order is a pure function of the result
// set, so sweeps are deterministic under any worker count.
func rank(results []ScenarioResult) {
	sort.SliceStable(results, func(i, j int) bool {
		a, b := results[i], results[j]
		if a.Feasible() != b.Feasible() {
			return a.Feasible()
		}
		if !a.Feasible() {
			return a.Name < b.Name
		}
		if a.Iteration != b.Iteration {
			return a.Iteration < b.Iteration
		}
		return a.Name < b.Name
	})
}

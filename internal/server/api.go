// Wire types and campaign builders for the lumosd HTTP API. SweepRequest
// and PlanRequest are the one spec of a campaign: lumosd decodes them from
// request bodies, and the `lumos sweep` / `lumos plan` CLI fills the same
// structs from its flags and calls the same builders (Scenarios, Space,
// Options) and result cuts (Listed, ListedDominated, PlanSpeedup). Both
// front ends therefore share one set of defaults, preset menus, admission
// limits and error messages, and a campaign posted to lumosd is the
// campaign the CLI runs.
package server

import (
	"fmt"
	"math"
	"slices"

	"lumos"
)

// Admission limits. The builders reject a campaign over either limit
// before anything walks or builds it, so a small body cannot ask for an
// unbounded search. Both are fixed, not configurable.
const (
	// MaxPlanPoints caps a plan's search space: the million-point scale
	// branch-and-bound is built for.
	MaxPlanPoints = 1 << 20
	// MaxSweepScenarios caps a sweep's scenario count, counted before any
	// scenario is built.
	MaxSweepScenarios = 4096
)

// Deployment names the base deployment a profile was (or will be)
// collected under. Zero values default to model "15b", tp/pp/dp 1 and
// microbatches 8.
type Deployment struct {
	Model        string `json:"model,omitempty"`
	TP           int    `json:"tp,omitempty"`
	PP           int    `json:"pp,omitempty"`
	DP           int    `json:"dp,omitempty"`
	Microbatches int    `json:"microbatches,omitempty"`
	// Schedule optionally names the pipeline schedule the deployment runs
	// ("1f1b", "gpipe", "interleaved[V]", "zb-h1").
	Schedule string `json:"schedule,omitempty"`
}

func (d Deployment) config() (lumos.Config, error) {
	model := d.Model
	if model == "" {
		model = "15b"
	}
	arch, err := lumos.ArchPreset(model)
	if err != nil {
		return lumos.Config{}, err
	}
	deg := func(n int) int {
		if n <= 0 {
			return 1
		}
		return n
	}
	cfg, err := lumos.DeploymentConfig(arch, deg(d.TP), deg(d.PP), deg(d.DP))
	if err != nil {
		return lumos.Config{}, err
	}
	if d.Microbatches > 0 {
		cfg.Microbatches = d.Microbatches
	} else {
		cfg.Microbatches = 8
	}
	if d.Schedule != "" {
		cfg, err = lumos.WithScheduleSpec(cfg, d.Schedule)
		if err != nil {
			return lumos.Config{}, err
		}
	}
	return cfg, nil
}

// ProfileRequest registers a named profile. Exactly one trace source must
// be set: TraceDir (a server-local rank_*.json directory), Traces (inline
// Kineto JSON documents, one per rank, in rank order), or Seed (profile
// the deployment on the simulated substrate now).
type ProfileRequest struct {
	Name       string     `json:"name"`
	Deployment Deployment `json:"deployment"`
	TraceDir   string     `json:"trace_dir,omitempty"`
	Traces     []rawTrace `json:"traces,omitempty"`
	Seed       *uint64    `json:"seed,omitempty"`
}

// rawTrace defers rank-trace decoding to the handler.
type rawTrace []byte

func (r *rawTrace) UnmarshalJSON(b []byte) error {
	*r = append((*r)[:0], b...)
	return nil
}

func (r rawTrace) MarshalJSON() ([]byte, error) {
	if len(r) == 0 {
		return []byte("null"), nil
	}
	return r, nil
}

// ProfileInfo describes a registered profile.
type ProfileInfo struct {
	Name        string  `json:"name"`
	Fingerprint string  `json:"fingerprint"`
	World       int     `json:"world"`
	Ranks       int     `json:"ranks"`
	Events      int     `json:"events"`
	IterationMs float64 `json:"iteration_ms"`
	// Created is true when this request built the profile, false when the
	// registry already held an identical one (idempotent re-upload).
	Created bool `json:"created"`
}

// ProfileList is the GET /v1/profiles response.
type ProfileList struct {
	Profiles []ProfileInfo `json:"profiles"`
}

// SweepRequest runs a scenario campaign against a registered profile;
// `lumos sweep` fills it from its flags. Grid ranges default to the base
// degrees, fabrics/schedules are preset names, Degrade holds network
// bandwidth factors, WhatIf adds the kernel counterfactuals.
type SweepRequest struct {
	Profile   string    `json:"profile"`
	TPRange   []int     `json:"tp_range,omitempty"`
	PPRange   []int     `json:"pp_range,omitempty"`
	DPRange   []int     `json:"dp_range,omitempty"`
	Archs     []string  `json:"archs,omitempty"`
	Schedules []string  `json:"schedules,omitempty"`
	Fabrics   []string  `json:"fabrics,omitempty"`
	Degrade   []float64 `json:"degrade,omitempty"`
	WhatIf    bool      `json:"whatif,omitempty"`
	// Top keeps only the K best-ranked feasible scenarios; infeasible
	// points stay visible below the cut (see Listed). 0 = all.
	Top int `json:"top,omitempty"`
	// Trace forces the request's flight-recorder trace to be retained
	// regardless of the server's slow-request threshold, and echoes the
	// trace id in the response for retrieval via GET /v1/traces/{id}.
	Trace bool `json:"trace,omitempty"`
}

// Scenarios builds the campaign against base: the baseline, the TP×PP×DP
// grid, the architecture variants, the schedules, the fabric × degrade
// rows and, with WhatIf, the four kernel counterfactuals. A campaign over
// MaxSweepScenarios is rejected before any scenario is built.
func (req *SweepRequest) Scenarios(base lumos.Config) ([]lumos.Scenario, error) {
	tps, pps, dps := orBase(req.TPRange, base.Map.TP), orBase(req.PPRange, base.Map.PP), orBase(req.DPRange, base.Map.DP)
	// Counted in float64, so no product of list lengths can wrap.
	n := 1 + float64(len(tps))*float64(len(pps))*float64(len(dps)) + float64(len(req.Archs)) + float64(len(req.Schedules))
	if len(req.Fabrics) > 0 || len(req.Degrade) > 0 {
		n += float64(max(len(req.Fabrics), 1)) * float64(max(len(req.Degrade), 1))
	}
	if req.WhatIf {
		n += 4 // the kernel counterfactuals appended below
	}
	if n > MaxSweepScenarios {
		return nil, fmt.Errorf("sweep has %.0f scenarios, over the limit of %d", n, MaxSweepScenarios)
	}
	scenarios := []lumos.Scenario{lumos.BaselineScenario()}
	scenarios = append(scenarios, lumos.GridSweep(base.Arch, tps, pps, dps)...)
	for _, name := range req.Archs {
		arch, err := lumos.ArchPreset(name)
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, lumos.ArchScenario(arch))
	}
	specs, err := scheduleNames(req.Schedules)
	if err != nil {
		return nil, err
	}
	scenarios = append(scenarios, lumos.ScheduleSweep(specs)...)
	if len(req.Fabrics) > 0 || len(req.Degrade) > 0 {
		var fabrics []lumos.Fabric
		for _, name := range req.Fabrics {
			f, err := lumos.FabricPreset(name, base.Map.WorldSize())
			if err != nil {
				return nil, err
			}
			fabrics = append(fabrics, f)
		}
		scenarios = append(scenarios, lumos.FabricSweep(fabrics, req.Degrade)...)
	}
	if req.WhatIf {
		scenarios = append(scenarios,
			lumos.ClassScaleScenario(lumos.KCGEMM, 0.5),
			lumos.ClassScaleScenario(lumos.KCAttention, 0.5),
			lumos.ClassScaleScenario(lumos.KCComm, 0.5),
			lumos.FusionScenario(),
		)
	}
	return scenarios, nil
}

// orBase is a grid range, or the base degree when the range is empty.
func orBase(r []int, base int) []int {
	if len(r) == 0 {
		return []int{base}
	}
	return r
}

// Listed cuts a ranked campaign to the results a response lists: with
// Top > 0, the Top best feasible results followed by every infeasible
// one, so a campaign over a mixed grid explains itself; otherwise all of
// them.
func (req *SweepRequest) Listed(sweep *lumos.SweepResult) []lumos.ScenarioResult {
	if req.Top <= 0 {
		return sweep.Results
	}
	// Results rank feasible scenarios first, so the infeasible ones are
	// the tail.
	i := slices.IndexFunc(sweep.Results, func(r lumos.ScenarioResult) bool { return !r.Feasible() })
	if i < 0 {
		i = len(sweep.Results)
	}
	return append(slices.Clip(sweep.Top(req.Top)), sweep.Results[i:]...)
}

// ScenarioResult is one ranked sweep outcome.
type ScenarioResult struct {
	Rank            int     `json:"rank,omitempty"`
	Name            string  `json:"name"`
	Kind            string  `json:"kind"`
	World           int     `json:"world,omitempty"`
	IterationMs     float64 `json:"iteration_ms,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
	CostDelta       float64 `json:"cost_delta,omitempty"`
	KernelsMeasured int     `json:"kernels_measured,omitempty"`
	KernelsModeled  int     `json:"kernels_modeled,omitempty"`
	Detail          string  `json:"detail,omitempty"`
	Err             string  `json:"error,omitempty"`
}

// SweepResponse is the POST /v1/sweep response: the base point and the
// ranked scenario outcomes. Cache counters live on GET /v1/stats so sweep
// bodies are byte-deterministic across worker counts and cache states.
type SweepResponse struct {
	Profile   string           `json:"profile"`
	Base      ScenarioResult   `json:"base"`
	Scenarios int              `json:"scenarios"`
	Results   []ScenarioResult `json:"results"`
	// TraceID is set only when the request opted in with "trace": true,
	// so default bodies stay byte-deterministic.
	TraceID string `json:"trace_id,omitempty"`
}

// PlanRequest runs the deployment planner against a registered profile;
// `lumos plan` fills it from its flags.
type PlanRequest struct {
	Profile   string    `json:"profile"`
	TPRange   []int     `json:"tp_range,omitempty"`
	PPRange   []int     `json:"pp_range,omitempty"`
	DPRange   []int     `json:"dp_range,omitempty"`
	MBRange   []int     `json:"mb_range,omitempty"`
	Schedules []string  `json:"schedules,omitempty"`
	Fabrics   []string  `json:"fabrics,omitempty"`
	Degrade   []float64 `json:"degrade,omitempty"`
	Strategy  string    `json:"strategy,omitempty"` // auto|exhaustive|bnb
	Budget    int       `json:"budget,omitempty"`
	GPUMemGiB float64   `json:"gpu_mem_gib,omitempty"`
	ZeRO      int       `json:"zero,omitempty"`
	// Top caps the dominated list in the response. 0 = all.
	Top int `json:"top,omitempty"`
	// Trace forces the request's flight-recorder trace to be retained
	// regardless of the server's slow-request threshold, and echoes the
	// trace id in the response for retrieval via GET /v1/traces/{id}.
	// Traced plan requests also carry a planner explain report on the
	// recorded trace.
	Trace bool `json:"trace,omitempty"`
}

// Space builds the search space against base: empty axes keep the base's
// value, schedule names are checked against the menu, and fabric presets
// are sized for the largest world the space reaches. Each raw list keeps
// only the first occurrence of each value before anything is built from
// it, so repeats cost a map lookup each. A space over MaxPlanPoints is
// rejected before it is walked.
func (req *PlanRequest) Space(base lumos.Config) (lumos.Space, error) {
	space := lumos.Space{
		TP:         distinct(req.TPRange, same[int]),
		PP:         distinct(req.PPRange, same[int]),
		DP:         distinct(req.DPRange, same[int]),
		Microbatch: distinct(req.MBRange, same[int]),
	}
	var err error
	if space.Schedules, err = scheduleNames(distinct(req.Schedules, same[string])); err != nil {
		return lumos.Space{}, err
	}
	for _, f := range distinct(req.Degrade, math.Float64bits) {
		space.Degrade = append(space.Degrade, lumos.NetworkDegradeFactors(f))
	}
	// Fabrics only multiply the size, so it is checked before the walk
	// that sizes them and again once they are resolved.
	if err := checkPlanSize(space, base); err != nil {
		return lumos.Space{}, err
	}
	if len(req.Fabrics) == 0 {
		return space, nil
	}
	maxWorld := base.Map.WorldSize()
	lumos.Space{TP: space.TP, PP: space.PP, DP: space.DP}.ForEach(base, func(p lumos.PlanPoint) bool {
		maxWorld = max(maxWorld, p.World())
		return true
	})
	for _, name := range distinct(req.Fabrics, same[string]) {
		f, err := lumos.FabricPreset(name, maxWorld)
		if err != nil {
			return lumos.Space{}, err
		}
		space.Fabrics = append(space.Fabrics, f)
	}
	if err := checkPlanSize(space, base); err != nil {
		return lumos.Space{}, err
	}
	return space, nil
}

// distinct keeps the first of the values that share an id, in order.
// Degrade factors compare by bit pattern: the planner tells -0 from 0.
func distinct[T any, K comparable](vals []T, id func(T) K) (out []T) {
	seen := map[K]bool{}
	for _, v := range vals {
		if k := id(v); !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// same is the identity, the id of values that compare as themselves.
func same[T comparable](v T) T { return v }

// checkPlanSize rejects a space over MaxPlanPoints.
func checkPlanSize(space lumos.Space, base lumos.Config) error {
	if n := space.Size(base); n > MaxPlanPoints {
		return fmt.Errorf("plan space has %d points, over the limit of %d", n, MaxPlanPoints)
	}
	return nil
}

// Options builds the planner options: the strategy by menu name, the
// simulation budget, and the memory model. GPUMemGiB 0 is the 80 GiB
// default; a negative, NaN or infinite capacity, or one whose byte count
// does not fit in int64, is an error.
func (req *PlanRequest) Options() ([]lumos.PlanOption, error) {
	strat, err := lumos.PlanStrategyByName(req.Strategy)
	if err != nil {
		return nil, err
	}
	opts := []lumos.PlanOption{lumos.WithPlanStrategy(strat)}
	if req.Budget > 0 {
		opts = append(opts, lumos.WithPlanBudget(req.Budget))
	}
	if req.ZeRO < 0 || req.ZeRO > 2 {
		return nil, fmt.Errorf("bad zero stage %d (want 0 none, 1 optimizer states, 2 +gradients)", req.ZeRO)
	}
	gpuMem := req.GPUMemGiB
	if gpuMem == 0 {
		gpuMem = 80
	}
	// NaN-rejecting. A capacity under one byte would truncate to 0, which
	// the memory model reads as its default.
	capacity := gpuMem * (1 << 30)
	if !(capacity >= 1 && capacity < math.MaxInt64) {
		return nil, fmt.Errorf("bad gpu_mem_gib %g (want a positive, finite capacity below 8 EiB; 0 = 80 GiB)", gpuMem)
	}
	opts = append(opts, lumos.WithMemoryModel(lumos.MemoryModel{
		GPUMemBytes: int64(capacity),
		ZeRO:        lumos.ZeROStage(req.ZeRO),
	}))
	return opts, nil
}

// ListedDominated cuts a plan's ranked dominated points to the Top best,
// or keeps them all when Top is 0.
func (req *PlanRequest) ListedDominated(res *lumos.PlanResult) []lumos.PlanEvaluated {
	if req.Top > 0 && len(res.Dominated) > req.Top {
		return res.Dominated[:req.Top]
	}
	return res.Dominated
}

// PlanSpeedup is an evaluated point's speedup over the campaign's base
// iteration, or 0 for a point without an iteration time.
func PlanSpeedup(st *lumos.BaseState, e lumos.PlanEvaluated) float64 {
	if e.Iteration <= 0 {
		return 0
	}
	return float64(st.Iteration) / float64(e.Iteration)
}

// PlanPoint is one evaluated planner point.
type PlanPoint struct {
	Rank        int     `json:"rank"`
	Point       string  `json:"point"`
	World       int     `json:"world"`
	IterationMs float64 `json:"iteration_ms"`
	Speedup     float64 `json:"speedup"`
	MemGiB      float64 `json:"mem_gib"`
	BoundMs     float64 `json:"bound_ms"`
}

// InfeasiblePoint is an analytically rejected planner point with its
// reason.
type InfeasiblePoint struct {
	Point  string `json:"point"`
	Reason string `json:"reason"`
}

// PlanStats reports planner search effort.
type PlanStats struct {
	SpaceSize         int `json:"space_size"`
	Feasible          int `json:"feasible"`
	MemRejected       int `json:"mem_rejected"`
	ScheduleRejected  int `json:"schedule_rejected"`
	ScopeRejected     int `json:"scope_rejected"`
	Simulated         int `json:"simulated"`
	Rounds            int `json:"rounds"`
	BoundPruned       int `json:"bound_pruned,omitempty"`
	DominatedPruned   int `json:"dominated_pruned,omitempty"`
	SharedStructure   int `json:"shared_structure,omitempty"`
	BoundViolations   int `json:"bound_violations,omitempty"`
	DominatedRetained int `json:"dominated_retained"`
}

// PlanResponse is the POST /v1/plan response: the Pareto frontier, ranked
// dominated points, retained infeasible points, and search stats. Like
// sweeps, cache counters are deliberately absent so bodies are
// byte-deterministic across worker counts and cache states.
type PlanResponse struct {
	Profile  string `json:"profile"`
	Strategy string `json:"strategy"`
	// Exact is false when the search counted a bound violation, so its
	// exactness guarantee does not hold (see planner.Result.Exact), and
	// omitted otherwise.
	Exact           *bool             `json:"exact,omitempty"`
	BaseIterationMs float64           `json:"base_iteration_ms"`
	Frontier        []PlanPoint       `json:"frontier"`
	Dominated       []PlanPoint       `json:"dominated,omitempty"`
	Infeasible      []InfeasiblePoint `json:"infeasible,omitempty"`
	Best            *PlanPoint        `json:"best,omitempty"`
	Stats           PlanStats         `json:"stats"`
	// TraceID is set only when the request opted in with "trace": true,
	// so default bodies stay byte-deterministic.
	TraceID string `json:"trace_id,omitempty"`
}

// TraceInfo summarizes one retained flight-recorder trace in
// GET /v1/traces.
type TraceInfo struct {
	ID         string  `json:"id"`
	Endpoint   string  `json:"endpoint"`
	Profile    string  `json:"profile,omitempty"`
	Status     int     `json:"status"`
	Start      string  `json:"start"`
	DurationMs float64 `json:"duration_ms"`
	Events     int     `json:"events"`
}

// TraceList is the GET /v1/traces response, newest first.
type TraceList struct {
	Traces []TraceInfo `json:"traces"`
}

// ProfileStats is one profile's cache activity in GET /v1/stats.
type ProfileStats struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	World       int    `json:"world"`
	MemoHits    int64  `json:"memo_hits"`
	MemoEntries int64  `json:"memo_entries"`
	DiskHits    int64  `json:"disk_hits"`
	DiskMisses  int64  `json:"disk_misses"`
}

// DiskStats is the shared on-disk scenario store in GET /v1/stats.
type DiskStats struct {
	Dir       string `json:"dir"`
	Hits      int64  `json:"hits"`
	Misses    int64  `json:"misses"`
	Puts      int64  `json:"puts"`
	Evictions int64  `json:"evictions"`
	Discards  int64  `json:"discards"`
	Entries   int64  `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Cap       int64  `json:"cap"`
}

// RequestStats counts API activity since startup.
type RequestStats struct {
	Profiles int64 `json:"profiles"`
	Sweeps   int64 `json:"sweeps"`
	Plans    int64 `json:"plans"`
	Errors   int64 `json:"errors"`
}

// InflightStats reports requests currently being served, total and per
// endpoint. The values are read from the same atomics that back the
// lumosd_inflight_requests gauges on /metrics, so the two surfaces always
// agree. The serving endpoint counts itself: a stats scrape reports
// stats=1.
type InflightStats struct {
	Total      int64            `json:"total"`
	ByEndpoint map[string]int64 `json:"by_endpoint,omitempty"`
}

// SearchStats aggregates planner search effort across every plan request
// served since startup: how many points were fully simulated, how many
// subtree points branch-and-bound pruned without simulating, and how many
// simulations re-timed a structurally shared graph instead of
// re-synthesizing.
type SearchStats struct {
	Simulated       int64 `json:"simulated"`
	BoundPruned     int64 `json:"bound_pruned"`
	DominatedPruned int64 `json:"dominated_pruned"`
	SharedStructure int64 `json:"shared_structure"`
}

// EngineStats aggregates replay-engine activity across every request served
// since startup: graph lowerings into compiled programs, runs, and plan-point
// replays skipped because the retime changed no collective's duration.
type EngineStats struct {
	CompiledPrograms int64 `json:"compiled_programs"`
	CompiledRuns     int64 `json:"compiled_runs"`
	SkippedRuns      int64 `json:"skipped_runs"`
}

// HealthResponse is the GET /v1/healthz response: liveness plus enough
// build identity to tell which binary is answering.
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_s"`
	GoVersion     string  `json:"go_version"`
	Workers       int     `json:"workers"`
	Module        string  `json:"module,omitempty"`
	Revision      string  `json:"revision,omitempty"`
	Dirty         bool    `json:"dirty,omitempty"`
}

// StatsResponse is the GET /v1/stats response.
type StatsResponse struct {
	UptimeSeconds float64        `json:"uptime_s"`
	Workers       int            `json:"workers"`
	Seed          uint64         `json:"seed"`
	Requests      RequestStats   `json:"requests"`
	Inflight      InflightStats  `json:"inflight"`
	Search        SearchStats    `json:"search"`
	Engine        EngineStats    `json:"engine"`
	Profiles      []ProfileStats `json:"profiles"`
	Disk          *DiskStats     `json:"disk,omitempty"`
}

// scheduleNames resolves a schedule list to canonical spec names, so an
// unknown name fails fast with the full menu.
func scheduleNames(specs []string) ([]string, error) {
	var out []string
	for _, s := range specs {
		spec, err := lumos.ParseSchedule(s)
		if err != nil {
			return nil, err
		}
		out = append(out, spec.Name())
	}
	return out, nil
}

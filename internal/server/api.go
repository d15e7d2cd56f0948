// Wire types and campaign builders for the lumosd HTTP API. The request
// schemas mirror the `lumos sweep` / `lumos plan` CLI flags one-for-one
// (same preset names, same defaulting, same menus in error messages), and
// the builders reuse the exact façade constructors the CLI calls — so a
// campaign posted to lumosd is byte-identical to the same campaign run
// in-process.
package server

import (
	"fmt"

	"lumos"
)

// Deployment names the base deployment a profile was (or will be)
// collected under. Zero values default like the CLI: model "15b",
// tp/pp/dp 1, microbatches 8.
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

// SweepRequest runs a scenario campaign against a registered profile. The
// fields mirror `lumos sweep`: grid ranges default to the base degrees,
// fabrics/schedules are preset names, Degrade holds network bandwidth
// factors, WhatIf adds the kernel counterfactuals.
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
	// Top keeps only the K best-ranked feasible scenarios (infeasible
	// points stay visible below the cut, as in the CLI). 0 = all.
	Top int `json:"top,omitempty"`
	// Trace forces the request's flight-recorder trace to be retained
	// regardless of the server's slow-request threshold, and echoes the
	// trace id in the response for retrieval via GET /v1/traces/{id}.
	Trace bool `json:"trace,omitempty"`
}

// scenarios assembles the campaign exactly like cmdSweep does.
func (req *SweepRequest) scenarios(base lumos.Config) ([]lumos.Scenario, error) {
	tps, pps, dps := req.TPRange, req.PPRange, req.DPRange
	if len(tps) == 0 {
		tps = []int{base.Map.TP}
	}
	if len(pps) == 0 {
		pps = []int{base.Map.PP}
	}
	if len(dps) == 0 {
		dps = []int{base.Map.DP}
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
	if len(req.Schedules) > 0 {
		specs, err := scheduleNames(req.Schedules)
		if err != nil {
			return nil, err
		}
		scenarios = append(scenarios, lumos.ScheduleSweep(specs)...)
	}
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

// PlanRequest runs the deployment planner against a registered profile,
// mirroring `lumos plan`.
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

// space assembles the search space exactly like cmdPlan does, sizing
// fabric presets for the largest world the space can reach.
func (req *PlanRequest) space(base lumos.Config) (lumos.Space, error) {
	space := lumos.Space{
		TP:         req.TPRange,
		PP:         req.PPRange,
		DP:         req.DPRange,
		Microbatch: req.MBRange,
	}
	var err error
	if space.Schedules, err = scheduleNames(req.Schedules); err != nil {
		return lumos.Space{}, err
	}
	if len(req.Fabrics) > 0 {
		maxWorld := base.Map.WorldSize()
		space.ForEach(base, func(p lumos.PlanPoint) bool {
			if w := p.World(); w > maxWorld {
				maxWorld = w
			}
			return true
		})
		for _, name := range req.Fabrics {
			f, err := lumos.FabricPreset(name, maxWorld)
			if err != nil {
				return lumos.Space{}, err
			}
			space.Fabrics = append(space.Fabrics, f)
		}
	}
	for _, f := range req.Degrade {
		space.Degrade = append(space.Degrade, lumos.NetworkDegradeFactors(f))
	}
	return space, nil
}

// options assembles the planner options exactly like cmdPlan does.
func (req *PlanRequest) options() ([]lumos.PlanOption, error) {
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
	if gpuMem < 0 {
		return nil, fmt.Errorf("bad gpu_mem_gib %g (want a positive capacity)", gpuMem)
	}
	opts = append(opts, lumos.WithMemoryModel(lumos.MemoryModel{
		GPUMemBytes: int64(gpuMem * (1 << 30)),
		ZeRO:        lumos.ZeROStage(req.ZeRO),
	}))
	return opts, nil
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
	SimRequests       int `json:"sim_requests"`
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
	Profile         string            `json:"profile"`
	Strategy        string            `json:"strategy"`
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

// scheduleNames validates a schedule list, resolving each spec so unknown
// names fail fast with the full menu (parity with the CLI).
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

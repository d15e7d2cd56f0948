// Package server implements lumosd, the long-lived planning service: a
// registry of named, immutable, fingerprinted profiles (each a calibrated
// campaign BaseState built once and shared read-only), multi-tenant
// sweep/plan campaign endpoints fanning over the toolkit's bounded worker
// pool with per-request cancellation, and the two-level scenario-cache
// counters surfaced over HTTP.
//
//	POST /v1/profiles     register (or idempotently re-register) a profile
//	GET  /v1/profiles     list registered profiles
//	POST /v1/sweep        run a scenario campaign against a profile
//	POST /v1/plan         run the deployment planner against a profile
//	GET  /v1/traces       list retained flight-recorder traces
//	GET  /v1/traces/{id}  fetch one trace as Perfetto-loadable JSON
//	GET  /v1/stats        cache + request counters (JSON)
//	GET  /v1/healthz      liveness probe with build info and uptime
//	GET  /metrics         Prometheus text exposition of every counter
//
// Every sweep and plan request runs under its own request-scoped tracer (a
// flight recorder): spans for the pipeline stages, per-scenario synthesis,
// compile/retime/replay, and planner rounds are captured per request, with
// no cross-request mixing on the shared worker pool. Traces are retained in
// a byte-capped LRU ring and retrievable by id; Config.TraceSlow narrows
// retention to slow requests, and a request can always opt in with
// "trace": true (the response then echoes the trace id). Traced plan
// requests additionally attach a structured planner explain report.
//
// Every request is served through one instrumentation layer: a per-process
// request ID, structured request logging (log/slog), and per-endpoint
// request counters and latency histograms in an obs.Registry. GET /metrics
// and GET /v1/stats read the same registry-backed atomics, so the two
// views can never disagree.
//
// Responses are deterministic: the same campaign against the same profile
// yields byte-identical bodies regardless of worker count, request
// interleaving, or cache temperature — the property the in-process API
// guarantees, carried over the wire.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lumos"
	"lumos/internal/analysis"
	"lumos/internal/obs"
	"lumos/internal/trace"
)

// maxBodyBytes bounds request bodies; inline trace uploads dominate.
const maxBodyBytes = 1 << 30

// Config configures a Server.
type Config struct {
	// CacheDir enables the disk-backed scenario cache (empty = memory
	// only); CacheCap bounds it in bytes (0 = the scache default).
	CacheDir string
	CacheCap int64
	// Workers sizes the sweep worker pool shared by every request
	// (0 = auto).
	Workers int
	// Seed seeds substrate profiling for seed-sourced profiles.
	Seed uint64
	// Logger receives one structured record per request served (method,
	// path, status, duration, request id). Nil discards request logs.
	Logger *slog.Logger
	// TraceSlow narrows flight-recorder retention: when > 0, only sweep
	// and plan requests at least this slow are retained (requests with
	// "trace": true are always retained). 0 retains every request.
	TraceSlow time.Duration
	// TraceCap bounds the flight-recorder ring in bytes
	// (0 = obs.DefaultRecorderCap).
	TraceCap int64
}

// profile is one registry entry: a named, immutable, calibrated campaign
// state shared read-only by every request that references it.
type profile struct {
	name        string
	fingerprint string
	cfg         lumos.Config
	state       *lumos.BaseState
	events      int
}

func (p *profile) info(created bool) ProfileInfo {
	return ProfileInfo{
		Name:        p.name,
		Fingerprint: p.fingerprint,
		World:       p.cfg.Map.WorldSize(),
		Ranks:       p.state.Traces.NumRanks(),
		Events:      p.events,
		IterationMs: analysis.Millis(p.state.Iteration),
		Created:     created,
	}
}

// Server is the lumosd planning service. It is an http.Handler; all
// methods are safe for concurrent use.
type Server struct {
	cfg Config
	tk  *lumos.Toolkit
	mux *http.ServeMux
	log *slog.Logger

	mu       sync.RWMutex
	profiles map[string]*profile

	// reg holds every lumosd counter plus the toolkit's collectors; GET
	// /metrics renders it and GET /v1/stats reads the same atomics.
	reg    *obs.Registry
	reqSeq atomic.Int64

	nProfiles *obs.Counter
	nSweeps   *obs.Counter
	nPlans    *obs.Counter
	nErrors   *obs.Counter

	// Aggregate planner search effort across every plan request served.
	nSimulated       *obs.Counter
	nBoundPruned     *obs.Counter
	nDominatedPruned *obs.Counter
	nSharedStructure *obs.Counter

	// recorder retains request traces; inflight tracks requests currently
	// being served, total and per endpoint. The inflights map is populated
	// during New (route registration) and read-only afterwards; the same
	// atomics back both the /metrics gauges and /v1/stats.
	recorder  *obs.Recorder
	inflight  atomic.Int64
	inflights map[string]*atomic.Int64

	start time.Time
}

// New builds a Server around one shared Toolkit: one worker pool, one
// disk cache, one calibration per distinct profile.
func New(cfg Config) *Server {
	opts := []lumos.Option{
		lumos.WithSeed(cfg.Seed),
		lumos.WithConcurrency(cfg.Workers),
	}
	if cfg.CacheDir != "" {
		opts = append(opts, lumos.WithDiskCache(cfg.CacheDir))
		if cfg.CacheCap > 0 {
			opts = append(opts, lumos.WithDiskCacheCap(cfg.CacheCap))
		}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	reg := obs.NewRegistry()
	s := &Server{
		cfg:       cfg,
		tk:        lumos.New(opts...),
		mux:       http.NewServeMux(),
		log:       logger,
		profiles:  make(map[string]*profile),
		reg:       reg,
		recorder:  obs.NewRecorder(cfg.TraceCap),
		inflights: make(map[string]*atomic.Int64),
		start:     time.Now(),

		nProfiles: reg.Counter("lumosd_profiles_created_total", "Profiles built and registered since startup."),
		nSweeps:   reg.Counter("lumosd_sweeps_total", "Sweep campaigns served since startup."),
		nPlans:    reg.Counter("lumosd_plans_total", "Plan searches served since startup."),
		nErrors:   reg.Counter("lumosd_request_errors_total", "Requests answered with an error body since startup."),

		nSimulated:       reg.Counter("lumosd_plan_simulated_total", "Planner points fully simulated across every plan request."),
		nBoundPruned:     reg.Counter("lumosd_plan_bound_pruned_total", "Planner points pruned by the admissible bound without simulation."),
		nDominatedPruned: reg.Counter("lumosd_plan_dominated_pruned_total", "Planner points pruned as dominated without simulation."),
		nSharedStructure: reg.Counter("lumosd_plan_shared_structure_total", "Simulations served by re-timing a structurally shared graph."),
	}
	s.tk.RegisterMetrics(reg)
	obs.RegisterRuntime(reg)
	s.handle("POST /v1/profiles", "profiles_create", s.handleCreateProfile)
	s.handle("GET /v1/profiles", "profiles_list", s.handleListProfiles)
	s.handle("POST /v1/sweep", "sweep", s.handleSweep)
	s.handle("POST /v1/plan", "plan", s.handlePlan)
	s.handle("GET /v1/traces", "traces_list", s.handleListTraces)
	s.handle("GET /v1/traces/{id}", "traces_get", s.handleGetTrace)
	s.handle("GET /v1/stats", "stats", s.handleStats)
	s.handle("GET /v1/healthz", "healthz", s.handleHealth)
	s.handle("GET /metrics", "metrics", s.handleMetrics)
	// In-flight gauges, sampled from the same atomics /v1/stats reads.
	// Registered after the routes so the per-endpoint map is complete.
	names := make([]string, 0, len(s.inflights))
	for name := range s.inflights {
		names = append(names, name)
	}
	sort.Strings(names)
	reg.Collect(func() []obs.Sample {
		out := make([]obs.Sample, 0, 1+len(names))
		out = append(out, obs.Sample{
			Name: "lumosd_inflight_requests", Kind: obs.KindGauge,
			Help:  "Requests currently being served.",
			Value: float64(s.inflight.Load()),
		})
		for _, name := range names {
			out = append(out, obs.Sample{
				Name: "lumosd_inflight_requests", Kind: obs.KindGauge,
				Help:   "Requests currently being served.",
				Labels: obs.RenderLabels("handler", name),
				Value:  float64(s.inflights[name].Load()),
			})
		}
		return out
	})
	return s
}

// discardHandler is the nil-logger sink: request logging disabled.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// statusWriter captures the response status for logging and metrics.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// handle registers pattern through the instrumentation layer: one request
// counter, one latency histogram, and one in-flight gauge per endpoint
// (labelled by the stable handler name, not the raw path), a per-process
// request ID, and one structured log record per request served.
func (s *Server) handle(pattern, name string, h http.HandlerFunc) {
	reqs := s.reg.Counter("lumosd_requests_total",
		"Requests served, by endpoint.", "handler", name)
	lat := s.reg.Histogram("lumosd_request_duration_seconds",
		"Request latency in seconds, by endpoint.", obs.DefBuckets, "handler", name)
	inflight := &atomic.Int64{}
	s.inflights[name] = inflight
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		id := s.reqSeq.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.inflight.Add(1)
		inflight.Add(1)
		t0 := time.Now()
		h(sw, r)
		d := time.Since(t0)
		inflight.Add(-1)
		s.inflight.Add(-1)
		reqs.Inc()
		lat.Observe(d.Seconds())
		s.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.Int64("id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("dur", d),
		)
	})
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Toolkit exposes the server's shared toolkit (tests and the smoke
// harness inspect its counters).
func (s *Server) Toolkit() *lumos.Toolkit { return s.tk }

// Registry exposes the server's metrics registry (tests snapshot it).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Close releases the server's process-held resources — most importantly
// the disk-backed scenario cache, which stops serving and accepting
// entries. Call it after the HTTP listener has drained.
func (s *Server) Close() error { return s.tk.Close() }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.nErrors.Inc()
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// failRun maps a campaign-execution error: client cancellations get 499
// (the response is moot anyway), everything else 500.
func (s *Server) failRun(w http.ResponseWriter, r *http.Request, err error) {
	if errors.Is(err, context.Canceled) || r.Context().Err() != nil {
		s.fail(w, 499, "request canceled")
		return
	}
	s.fail(w, http.StatusInternalServerError, "%v", err)
}

func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// registryFingerprint is a profile's content address: the trace digest
// plus every deployment field. Two uploads with the same name must match
// on it or the second is rejected — profiles are immutable.
func registryFingerprint(cfg lumos.Config, m *lumos.Multi) string {
	h := sha256.New()
	io.WriteString(h, "lumosd-profile|")
	io.WriteString(h, trace.Fingerprint(m))
	fmt.Fprintf(h, "|%+v", cfg)
	return hex.EncodeToString(h.Sum(nil))
}

func validProfileName(name string) error {
	if name == "" {
		return fmt.Errorf("profile name required")
	}
	if len(name) > 128 {
		return fmt.Errorf("profile name too long (%d > 128)", len(name))
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-' || r == '_' || r == '.':
		default:
			return fmt.Errorf("bad profile name %q (want [a-zA-Z0-9._-]+)", name)
		}
	}
	return nil
}

// loadProfileTraces resolves the request's trace source.
func (s *Server) loadProfileTraces(ctx context.Context, req *ProfileRequest, cfg lumos.Config) (*lumos.Multi, error) {
	sources := 0
	if req.TraceDir != "" {
		sources++
	}
	if len(req.Traces) > 0 {
		sources++
	}
	if req.Seed != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one trace source required: trace_dir (server-local rank_*.json directory), traces (inline per-rank Kineto JSON), or seed (profile on the simulated substrate)")
	}
	switch {
	case req.TraceDir != "":
		return lumos.LoadTraces(req.TraceDir)
	case len(req.Traces) > 0:
		m := &lumos.Multi{Ranks: make([]*lumos.Trace, len(req.Traces))}
		for i, raw := range req.Traces {
			t, err := trace.DecodeJSON(bytes.NewReader(raw))
			if err != nil {
				return nil, fmt.Errorf("inline trace %d: %w", i, err)
			}
			t.Rank = i
			m.Ranks[i] = t
		}
		return m, nil
	default:
		return s.tk.Profile(ctx, cfg, *req.Seed)
	}
}

func (s *Server) handleCreateProfile(w http.ResponseWriter, r *http.Request) {
	var req ProfileRequest
	if !s.decode(w, r, &req) {
		return
	}
	if err := validProfileName(req.Name); err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg, err := req.Deployment.config()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad deployment: %v", err)
		return
	}
	m, err := s.loadProfileTraces(r.Context(), &req, cfg)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "loading traces: %v", err)
		return
	}
	fp := registryFingerprint(cfg, m)

	// Fast path: an identical profile already exists (idempotent
	// re-upload) or the name is taken by different content (immutable).
	s.mu.RLock()
	existing := s.profiles[req.Name]
	s.mu.RUnlock()
	if existing != nil {
		if existing.fingerprint == fp {
			writeJSON(w, http.StatusOK, existing.info(false))
			return
		}
		s.fail(w, http.StatusConflict,
			"profile %q already registered with different content (profiles are immutable; pick a new name)", req.Name)
		return
	}

	// Build the shared campaign state outside the registry lock — this is
	// the expensive calibration step, done once per profile.
	st, err := s.tk.PrepareTraces(r.Context(), cfg, m)
	if err != nil {
		s.failRun(w, r, err)
		return
	}
	p := &profile{
		name:        req.Name,
		fingerprint: fp,
		cfg:         cfg,
		state:       st,
		events:      m.Events(),
	}

	s.mu.Lock()
	if cur := s.profiles[req.Name]; cur != nil {
		// A concurrent request registered the name first.
		s.mu.Unlock()
		if cur.fingerprint == fp {
			writeJSON(w, http.StatusOK, cur.info(false))
			return
		}
		s.fail(w, http.StatusConflict,
			"profile %q already registered with different content (profiles are immutable; pick a new name)", req.Name)
		return
	}
	s.profiles[req.Name] = p
	s.mu.Unlock()

	// Surface this campaign state's cache counters on /metrics, labelled
	// by profile name (names are validated and registration is
	// first-writer-wins, so each series registers at most once).
	p.state.RegisterMetrics(s.reg, "profile", p.name)

	s.nProfiles.Inc()
	writeJSON(w, http.StatusCreated, p.info(true))
}

func (s *Server) handleListProfiles(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	list := make([]*profile, 0, len(s.profiles))
	for _, p := range s.profiles {
		list = append(list, p)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	resp := ProfileList{Profiles: make([]ProfileInfo, len(list))}
	for i, p := range list {
		resp.Profiles[i] = p.info(false)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) lookup(w http.ResponseWriter, name string) *profile {
	if name == "" {
		s.fail(w, http.StatusBadRequest, "profile name required")
		return nil
	}
	s.mu.RLock()
	p := s.profiles[name]
	s.mu.RUnlock()
	if p == nil {
		s.fail(w, http.StatusNotFound, "unknown profile %q (register it via POST /v1/profiles)", name)
	}
	return p
}

// startTrace gives a request its own flight-recorder tracer with a fresh
// process-unique id and returns a context carrying it: toolkit entry points
// prefer the context tracer, so concurrent requests on the shared worker
// pool record fully disjoint span sets.
func (s *Server) startTrace(r *http.Request) (*obs.Tracer, context.Context) {
	tr := obs.NewTracer()
	tr.SetID(s.recorder.NextID())
	return tr, obs.ContextWithTracer(r.Context(), tr)
}

// retain applies the capture policy to a finished request trace: always
// retained when the request opted in (forced) or no slow threshold is
// configured, otherwise only when the request was at least TraceSlow.
// Returns the retained trace id, or "".
func (s *Server) retain(tr *obs.Tracer, endpoint, profileName string, status int, t0 time.Time, d time.Duration, forced bool, explain any) string {
	if !forced && s.cfg.TraceSlow > 0 && d < s.cfg.TraceSlow {
		return ""
	}
	rt := &obs.RecordedTrace{
		ID:         tr.ID(),
		Endpoint:   endpoint,
		Profile:    profileName,
		Status:     status,
		Start:      t0,
		DurationMs: float64(d) / float64(time.Millisecond),
		Events:     tr.Events(),
		Explain:    explain,
	}
	s.recorder.Add(rt)
	return rt.ID
}

func scenarioJSON(r lumos.ScenarioResult, rank int) ScenarioResult {
	out := ScenarioResult{
		Rank:   rank,
		Name:   r.Name,
		Kind:   r.Kind,
		Detail: r.Detail,
		Err:    r.Err,
	}
	if r.Err == "" {
		out.World = r.World
		out.IterationMs = analysis.Millis(r.Iteration)
		out.Speedup = r.Speedup
		out.CostDelta = r.CostDelta
		out.KernelsMeasured = r.LibraryHits
		out.KernelsModeled = r.LibraryMisses
	}
	return out
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !s.decode(w, r, &req) {
		return
	}
	p := s.lookup(w, req.Profile)
	if p == nil {
		return
	}
	scenarios, err := req.scenarios(p.cfg)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr, ctx := s.startTrace(r)
	t0 := time.Now()
	sweep, err := s.tk.EvaluateState(ctx, p.state, scenarios...)
	if err != nil {
		s.failRun(w, r, err)
		return
	}
	traceID := s.retain(tr, "sweep", p.name, http.StatusOK, t0, time.Since(t0), req.Trace, nil)
	s.nSweeps.Inc()

	results := sweep.Results
	if req.Top > 0 {
		ranked := sweep.Top(req.Top)
		// Keep infeasible points visible below the cut, as the CLI does.
		n := 0
		for _, res := range results {
			if !res.Feasible() {
				n++
			}
		}
		infeasible := results[len(results)-n:]
		results = append(append([]lumos.ScenarioResult{}, ranked...), infeasible...)
	}
	resp := SweepResponse{
		Profile:   p.name,
		Base:      scenarioJSON(sweep.Base, 0),
		Scenarios: len(sweep.Results),
		Results:   make([]ScenarioResult, len(results)),
	}
	if req.Trace {
		resp.TraceID = traceID
	}
	rank := 1
	for i, res := range results {
		if res.Feasible() {
			resp.Results[i] = scenarioJSON(res, rank)
			rank++
		} else {
			resp.Results[i] = scenarioJSON(res, 0)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req PlanRequest
	if !s.decode(w, r, &req) {
		return
	}
	p := s.lookup(w, req.Profile)
	if p == nil {
		return
	}
	space, err := req.space(p.cfg)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	opts, err := req.options()
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	tr, ctx := s.startTrace(r)
	explain := &lumos.PlanExplain{}
	opts = append(opts, lumos.WithPlanExplain(explain))
	t0 := time.Now()
	res, err := s.tk.PlanState(ctx, p.state, space, opts...)
	if err != nil {
		s.failRun(w, r, err)
		return
	}
	traceID := s.retain(tr, "plan", p.name, http.StatusOK, t0, time.Since(t0), req.Trace, explain)
	s.nPlans.Inc()
	s.nSimulated.Add(int64(res.Stats.Simulated))
	s.nBoundPruned.Add(int64(res.Stats.BoundPruned))
	s.nDominatedPruned.Add(int64(res.Stats.DominatedPruned))
	s.nSharedStructure.Add(int64(res.Stats.SharedStructure))

	baseIter := p.state.Iteration
	point := func(rank int, e lumos.PlanEvaluated) PlanPoint {
		speedup := 0.0
		if e.Iteration > 0 {
			speedup = float64(baseIter) / float64(e.Iteration)
		}
		return PlanPoint{
			Rank:        rank,
			Point:       e.Point.Key(),
			World:       e.Point.World(),
			IterationMs: analysis.Millis(e.Iteration),
			Speedup:     speedup,
			MemGiB:      e.Mem.GiB(),
			BoundMs:     analysis.Millis(e.Bound),
		}
	}
	resp := PlanResponse{
		Profile:         p.name,
		Strategy:        res.Strategy,
		BaseIterationMs: analysis.Millis(baseIter),
		Frontier:        make([]PlanPoint, len(res.Frontier)),
		Stats: PlanStats{
			SpaceSize:         res.Stats.SpaceSize,
			Feasible:          res.Stats.Feasible,
			MemRejected:       res.Stats.MemRejected,
			ScheduleRejected:  res.Stats.ScheduleRejected,
			ScopeRejected:     res.Stats.ScopeRejected,
			Simulated:         res.Stats.Simulated,
			SimRequests:       res.Stats.SimRequests,
			Rounds:            res.Stats.Rounds,
			BoundPruned:       res.Stats.BoundPruned,
			DominatedPruned:   res.Stats.DominatedPruned,
			SharedStructure:   res.Stats.SharedStructure,
			DominatedRetained: len(res.Dominated),
		},
	}
	for i, e := range res.Frontier {
		resp.Frontier[i] = point(i+1, e)
	}
	dominated := res.Dominated
	if req.Top > 0 && len(dominated) > req.Top {
		dominated = dominated[:req.Top]
	}
	for i, e := range dominated {
		resp.Dominated = append(resp.Dominated, point(len(res.Frontier)+i+1, e))
	}
	for _, c := range res.Infeasible {
		resp.Infeasible = append(resp.Infeasible, InfeasiblePoint{
			Point:  c.Point.Key(),
			Reason: c.Infeasible,
		})
	}
	if best, ok := res.Best(); ok {
		bp := point(1, best)
		resp.Best = &bp
	}
	if req.Trace {
		resp.TraceID = traceID
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleListTraces(w http.ResponseWriter, r *http.Request) {
	recorded := s.recorder.List()
	resp := TraceList{Traces: make([]TraceInfo, len(recorded))}
	for i, rt := range recorded {
		resp.Traces[i] = TraceInfo{
			ID:         rt.ID,
			Endpoint:   rt.Endpoint,
			Profile:    rt.Profile,
			Status:     rt.Status,
			Start:      rt.Start.UTC().Format(time.RFC3339Nano),
			DurationMs: rt.DurationMs,
			Events:     len(rt.Events),
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// traceDoc is the GET /v1/traces/{id} body: a Chrome trace-event document
// (loadable in Perfetto and parseable by obs.ParseTrace, which ignore the
// extra top-level keys) carrying the trace id and, for plan requests, the
// planner explain report.
type traceDoc struct {
	TraceEvents     []obs.TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string           `json:"displayTimeUnit"`
	ID              string           `json:"id"`
	Endpoint        string           `json:"endpoint"`
	Profile         string           `json:"profile,omitempty"`
	DurationMs      float64          `json:"duration_ms"`
	Explain         any              `json:"explain,omitempty"`
}

func (s *Server) handleGetTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rt := s.recorder.Get(id)
	if rt == nil {
		s.fail(w, http.StatusNotFound, "unknown trace %q (list retained traces via GET /v1/traces)", id)
		return
	}
	events := rt.Events
	if events == nil {
		events = []obs.TraceEvent{}
	}
	writeJSON(w, http.StatusOK, traceDoc{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		ID:              rt.ID,
		Endpoint:        rt.Endpoint,
		Profile:         rt.Profile,
		DurationMs:      rt.DurationMs,
		Explain:         rt.Explain,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	list := make([]*profile, 0, len(s.profiles))
	for _, p := range s.profiles {
		list = append(list, p)
	}
	s.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })

	resp := StatsResponse{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		Seed:          s.cfg.Seed,
		Requests: RequestStats{
			Profiles: s.nProfiles.Value(),
			Sweeps:   s.nSweeps.Value(),
			Plans:    s.nPlans.Value(),
			Errors:   s.nErrors.Value(),
		},
		Inflight: InflightStats{
			Total:      s.inflight.Load(),
			ByEndpoint: make(map[string]int64, len(s.inflights)),
		},
		Search: SearchStats{
			Simulated:       s.nSimulated.Value(),
			BoundPruned:     s.nBoundPruned.Value(),
			DominatedPruned: s.nDominatedPruned.Value(),
			SharedStructure: s.nSharedStructure.Value(),
		},
		Profiles: make([]ProfileStats, len(list)),
	}
	for name, g := range s.inflights {
		resp.Inflight.ByEndpoint[name] = g.Load()
	}
	resp.Engine.CompiledPrograms, resp.Engine.CompiledRuns = s.tk.EngineStats()
	for i, p := range list {
		cs := p.state.CacheStats()
		resp.Profiles[i] = ProfileStats{
			Name:        p.name,
			Fingerprint: p.fingerprint,
			World:       p.cfg.Map.WorldSize(),
			MemoHits:    cs.MemoHits,
			MemoEntries: cs.MemoEntries,
			DiskHits:    cs.DiskHits,
			DiskMisses:  cs.DiskMisses,
		}
	}
	if ds, ok := s.tk.DiskCacheStats(); ok {
		resp.Disk = &DiskStats{
			Dir:       strings.TrimSpace(s.cfg.CacheDir),
			Hits:      ds.Hits,
			Misses:    ds.Misses,
			Puts:      ds.Puts,
			Evictions: ds.Evictions,
			Discards:  ds.Discards,
			Entries:   ds.Entries,
			Bytes:     ds.Bytes,
			Cap:       ds.Cap,
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{
		Status:        "ok",
		UptimeSeconds: time.Since(s.start).Seconds(),
		GoVersion:     runtime.Version(),
		Workers:       s.cfg.Workers,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		resp.Module = bi.Main.Path
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				resp.Revision = kv.Value
			case "vcs.modified":
				resp.Dirty = kv.Value == "true"
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the full registry — lumosd request counters and
// latency histograms, planner search totals, and the toolkit collectors
// (engine, calibration, per-profile scenario caches, disk cache) — in the
// Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.reg.Snapshot().WritePrometheus(w)
}

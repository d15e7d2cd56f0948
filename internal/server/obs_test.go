package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"lumos/internal/obs"
)

// metricsBody scrapes GET /metrics and asserts the exposition content type.
func metricsBody(t *testing.T, s *Server) string {
	t.Helper()
	rec := do(t, s, "GET", "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type = %q", ct)
	}
	return rec.Body.String()
}

// TestMetricsEndpoint runs one sweep and one plan and checks that the
// Prometheus exposition carries the per-endpoint request counters, the
// latency histograms, and the toolkit collectors — with values identical
// to the GET /v1/stats JSON, which reads the same atomics.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{Seed: 42, CacheDir: t.TempDir()})
	createProfile(t, s, "fig7", http.StatusCreated)

	sweepReq := SweepRequest{Profile: "fig7", PPRange: []int{1, 2}}
	if rec := do(t, s, "POST", "/v1/sweep", sweepReq); rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
	}
	planReq := PlanRequest{Profile: "fig7", PPRange: []int{1, 2}, MBRange: []int{4, 8}, Strategy: "bnb"}
	rec := do(t, s, "POST", "/v1/plan", planReq)
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d: %s", rec.Code, rec.Body.String())
	}
	// The admissible bound holds on the fig7 profile, so the violation
	// count is zero and stays out of the response body, and so does the
	// inexact mark a violation would set.
	if strings.Contains(rec.Body.String(), "bound_violations") || strings.Contains(rec.Body.String(), `"exact"`) {
		t.Errorf("plan response reports bound violations: %s", rec.Body.String())
	}

	body := metricsBody(t, s)
	for _, want := range []string{
		"# TYPE lumosd_requests_total counter",
		`lumosd_requests_total{handler="profiles_create"} 1`,
		`lumosd_requests_total{handler="sweep"} 1`,
		`lumosd_requests_total{handler="plan"} 1`,
		"# TYPE lumosd_request_duration_seconds histogram",
		`lumosd_request_duration_seconds_bucket{handler="plan",le="+Inf"} 1`,
		`lumosd_request_duration_seconds_count{handler="plan"} 1`,
		"lumosd_profiles_created_total 1",
		"lumosd_sweeps_total 1",
		"lumosd_plans_total 1",
		"# TYPE lumos_engine_runs_total counter",
		"lumos_planner_bound_violations_total 0",
		"lumos_synth_class_splits_total 0",
		`lumos_memo_hits_total{profile="fig7"}`,
		"lumos_scache_puts_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// The JSON stats view and the exposition read the same storage.
	stats := decodeBody[StatsResponse](t, do(t, s, "GET", "/v1/stats", nil))
	snap := s.Registry().Snapshot()
	for _, c := range []struct {
		name string
		want int64
	}{
		{"lumosd_profiles_created_total", stats.Requests.Profiles},
		{"lumosd_sweeps_total", stats.Requests.Sweeps},
		{"lumosd_plans_total", stats.Requests.Plans},
		{"lumosd_request_errors_total", stats.Requests.Errors},
		{"lumosd_plan_simulated_total", stats.Search.Simulated},
		{"lumosd_plan_bound_pruned_total", stats.Search.BoundPruned},
		{"lumosd_plan_shared_structure_total", stats.Search.SharedStructure},
		{"lumos_engine_compiled_programs_total", stats.Engine.CompiledPrograms},
	} {
		got, ok := snap.Value(c.name, "")
		if !ok {
			t.Errorf("metric %s missing from snapshot", c.name)
			continue
		}
		if int64(got) != c.want {
			t.Errorf("%s = %v, stats report %d", c.name, got, c.want)
		}
	}
	if stats.Disk == nil {
		t.Fatal("stats missing disk section")
	}
	if got, ok := snap.Value("lumos_scache_puts_total", ""); !ok || int64(got) != stats.Disk.Puts {
		t.Errorf("lumos_scache_puts_total = %v (ok=%v), stats report %d", got, ok, stats.Disk.Puts)
	}
	if got, ok := snap.Value("lumos_memo_hits_total", `profile="fig7"`); !ok || int64(got) != stats.Profiles[0].MemoHits {
		t.Errorf("lumos_memo_hits_total = %v (ok=%v), stats report %d", got, ok, stats.Profiles[0].MemoHits)
	}
}

// TestFlightRecorderConcurrentTraces runs N traced plan requests in
// parallel on the shared worker pool and checks request-scoped isolation:
// N distinct trace ids, each individually retrievable as a parseable
// Chrome trace document holding exactly one request's span set, with the
// explain report's totals matching that response's own search stats.
func TestFlightRecorderConcurrentTraces(t *testing.T) {
	s := New(Config{Seed: 42, Workers: 4})
	createProfile(t, s, "fig7", http.StatusCreated)

	const n = 4
	resps := make([]PlanResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := PlanRequest{Profile: "fig7", PPRange: []int{1, 2}, MBRange: []int{4, 8}, Strategy: "bnb", Trace: true}
			rec := do(t, s, "POST", "/v1/plan", req)
			if rec.Code != http.StatusOK {
				t.Errorf("plan %d = %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			resps[i] = decodeBody[PlanResponse](t, rec)
		}(i)
	}
	wg.Wait()

	ids := map[string]bool{}
	for i, resp := range resps {
		if resp.TraceID == "" {
			t.Fatalf("plan %d: no trace_id in traced response", i)
		}
		if ids[resp.TraceID] {
			t.Fatalf("trace id %q returned to two requests", resp.TraceID)
		}
		ids[resp.TraceID] = true

		rec := do(t, s, "GET", "/v1/traces/"+resp.TraceID, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /v1/traces/%s = %d: %s", resp.TraceID, rec.Code, rec.Body.String())
		}
		// The document must round-trip through the exporter's own parser.
		events, err := obs.ParseTrace(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("trace %s does not parse: %v", resp.TraceID, err)
		}
		// Exactly one request's spans: one plan pipeline span, one sweep
		// span per search round, and one scenario span per point-evaluation
		// this request asked for — a shared or leaked tracer would inflate
		// these. Child stages (synthesize/compile/retime/replay) inherit
		// the scenario category and are excluded from the count.
		stage := map[string]bool{"synthesize": true, "compile": true, "retime": true, "replay": true}
		planSpans, sweepSpans, scenarioSpans := 0, 0, 0
		for _, e := range events {
			if e.Ph != "X" {
				continue
			}
			switch {
			case e.Cat == "pipeline" && e.Name == "plan":
				planSpans++
			case e.Cat == "pipeline" && e.Name == "sweep":
				sweepSpans++
			case e.Cat == "scenario" && !stage[e.Name]:
				scenarioSpans++
			}
		}
		if planSpans != 1 {
			t.Errorf("trace %s: %d pipeline/plan spans, want exactly 1", resp.TraceID, planSpans)
		}
		if sweepSpans != resp.Stats.Rounds {
			t.Errorf("trace %s: %d pipeline/sweep spans, want %d (this request's rounds)",
				resp.TraceID, sweepSpans, resp.Stats.Rounds)
		}
		if scenarioSpans != resp.Stats.Simulated {
			t.Errorf("trace %s: %d scenario spans, want %d (this request's simulated points)",
				resp.TraceID, scenarioSpans, resp.Stats.Simulated)
		}

		doc := decodeBody[traceDoc](t, rec)
		if doc.ID != resp.TraceID || doc.Endpoint != "plan" || doc.Profile != "fig7" {
			t.Errorf("trace doc identity = %q/%q/%q", doc.ID, doc.Endpoint, doc.Profile)
		}
		// The explain report attached to the trace accounts for this
		// request's own search effort, point for point.
		explain := struct {
			Strategy  string `json:"strategy"`
			Simulated []struct {
				Point    string  `json:"point"`
				BoundMs  float64 `json:"bound_ms"`
				ActualMs float64 `json:"actual_ms"`
			} `json:"simulated"`
			Pruned []struct {
				Points int `json:"points"`
			} `json:"pruned"`
		}{}
		raw, err := json.Marshal(doc.Explain)
		if err != nil {
			t.Fatalf("re-encoding explain: %v", err)
		}
		if err := json.Unmarshal(raw, &explain); err != nil {
			t.Fatalf("decoding explain: %v", err)
		}
		if explain.Strategy != resp.Strategy {
			t.Errorf("explain strategy = %q, response %q", explain.Strategy, resp.Strategy)
		}
		if len(explain.Simulated) != resp.Stats.Simulated {
			t.Errorf("explain has %d simulated records, stats report %d", len(explain.Simulated), resp.Stats.Simulated)
		}
		pruned := 0
		for _, p := range explain.Pruned {
			pruned += p.Points
		}
		if want := resp.Stats.BoundPruned + resp.Stats.DominatedPruned; pruned != want {
			t.Errorf("explain prunes %d points, stats report %d", pruned, want)
		}
	}

	list := decodeBody[TraceList](t, do(t, s, "GET", "/v1/traces", nil))
	listed := map[string]bool{}
	for _, info := range list.Traces {
		listed[info.ID] = true
		if info.Endpoint != "plan" || info.Profile != "fig7" || info.Status != http.StatusOK {
			t.Errorf("trace list entry %+v", info)
		}
	}
	for id := range ids {
		if !listed[id] {
			t.Errorf("trace %s missing from GET /v1/traces", id)
		}
	}
}

// TestFlightRecorderShowsDiskCache: a lumosd with a disk cache answers a
// traced plan, and the request's flight-recorder trace holds the disk
// cache's instants: one miss and one put per fresh point on a cold cache
// directory, then one hit per point on a second server over the same
// directory.
func TestFlightRecorderShowsDiskCache(t *testing.T) {
	dir := t.TempDir()
	req := PlanRequest{Profile: "fig7", PPRange: []int{1, 2}, MBRange: []int{4, 8}, Trace: true}
	for _, want := range []map[string]int{{"miss": 1, "put": 1}, {"hit": 1}} {
		s := New(Config{Seed: 42, CacheDir: dir})
		createProfile(t, s, "fig7", http.StatusCreated)
		resp := decodeBody[PlanResponse](t, do(t, s, "POST", "/v1/plan", req))
		if resp.Stats.Simulated == 0 {
			t.Fatalf("plan simulated no point: %+v", resp.Stats)
		}
		rec := do(t, s, "GET", "/v1/traces/"+resp.TraceID, nil)
		events, err := obs.ParseTrace(rec.Body.Bytes())
		if err != nil {
			t.Fatalf("trace %s does not parse: %v", resp.TraceID, err)
		}
		got := map[string]int{}
		for _, e := range events {
			if e.Cat == "scache" {
				got[e.Name]++
			}
		}
		for name, perPoint := range want {
			want[name] = perPoint * resp.Stats.Simulated
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trace %s holds scache instants %v, want %v", resp.TraceID, got, want)
		}
	}
}

// TestFlightRecorderRetentionPolicy checks the capture policy: with a slow
// threshold configured, fast un-opted requests are dropped, opted-in
// requests are always retained, and unknown ids 404.
func TestFlightRecorderRetentionPolicy(t *testing.T) {
	s := New(Config{Seed: 42, TraceSlow: time.Hour})
	createProfile(t, s, "fig7", http.StatusCreated)

	if rec := do(t, s, "POST", "/v1/sweep", SweepRequest{Profile: "fig7"}); rec.Code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", rec.Code, rec.Body.String())
	}
	if list := decodeBody[TraceList](t, do(t, s, "GET", "/v1/traces", nil)); len(list.Traces) != 0 {
		t.Fatalf("fast un-opted request retained under -trace-slow: %+v", list.Traces)
	}

	resp := decodeBody[SweepResponse](t, do(t, s, "POST", "/v1/sweep", SweepRequest{Profile: "fig7", Trace: true}))
	if resp.TraceID == "" {
		t.Fatal("opted-in sweep response carries no trace_id")
	}
	list := decodeBody[TraceList](t, do(t, s, "GET", "/v1/traces", nil))
	if len(list.Traces) != 1 || list.Traces[0].ID != resp.TraceID || list.Traces[0].Endpoint != "sweep" {
		t.Fatalf("trace list = %+v, want the opted-in sweep", list.Traces)
	}

	if rec := do(t, s, "GET", "/v1/traces/tr-999", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET unknown trace = %d, want 404", rec.Code)
	}
}

// TestUntracedBodiesOmitTraceID pins the byte-determinism contract: a
// request that does not opt in gets no trace_id key even though the server
// records its trace (default policy retains everything).
func TestUntracedBodiesOmitTraceID(t *testing.T) {
	s := New(Config{Seed: 42})
	createProfile(t, s, "fig7", http.StatusCreated)
	rec := do(t, s, "POST", "/v1/sweep", SweepRequest{Profile: "fig7"})
	if strings.Contains(rec.Body.String(), "trace_id") {
		t.Fatalf("un-opted sweep body leaks trace_id: %s", rec.Body.String())
	}
	if list := decodeBody[TraceList](t, do(t, s, "GET", "/v1/traces", nil)); len(list.Traces) != 1 {
		t.Fatalf("default policy should retain the request trace, list = %+v", list.Traces)
	}
}

// TestInflightAgreement checks the in-flight gauges: /v1/stats and
// /metrics read the same atomics, and each surface sees its own serving
// request in flight.
func TestInflightAgreement(t *testing.T) {
	s := New(Config{Seed: 42})
	stats := decodeBody[StatsResponse](t, do(t, s, "GET", "/v1/stats", nil))
	if stats.Inflight.Total != 1 || stats.Inflight.ByEndpoint["stats"] != 1 {
		t.Fatalf("stats inflight = %+v, want the stats request itself", stats.Inflight)
	}
	for name, v := range stats.Inflight.ByEndpoint {
		if name != "stats" && v != 0 {
			t.Errorf("endpoint %s inflight = %d at rest", name, v)
		}
	}
	body := metricsBody(t, s)
	for _, want := range []string{
		"# TYPE lumosd_inflight_requests gauge",
		"lumosd_inflight_requests 1",
		fmt.Sprintf("lumosd_inflight_requests{handler=%q} 1", "metrics"),
		fmt.Sprintf("lumosd_inflight_requests{handler=%q} 0", "plan"),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestRuntimeMetricsOnServer checks the Go-runtime collectors registered
// by New appear in the exposition.
func TestRuntimeMetricsOnServer(t *testing.T) {
	s := New(Config{Seed: 42})
	body := metricsBody(t, s)
	for _, want := range []string{
		"lumos_go_goroutines",
		"lumos_go_heap_inuse_bytes",
		"lumos_go_gc_cycles_total",
		"lumos_process_start_time_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing runtime series %q", want)
		}
	}
}

// TestHealthz checks the enriched liveness probe.
func TestHealthz(t *testing.T) {
	s := New(Config{Seed: 42, Workers: 3})
	resp := decodeBody[HealthResponse](t, do(t, s, "GET", "/v1/healthz", nil))
	if resp.Status != "ok" || resp.GoVersion == "" || resp.UptimeSeconds < 0 || resp.Workers != 3 {
		t.Fatalf("unexpected healthz response: %+v", resp)
	}
}

// TestErrorCounterOnMetrics checks the failure path books into the same
// error counter /v1/stats reports.
func TestErrorCounterOnMetrics(t *testing.T) {
	s := New(Config{Seed: 42})
	if rec := do(t, s, "POST", "/v1/sweep", SweepRequest{Profile: "nope"}); rec.Code != http.StatusNotFound {
		t.Fatalf("sweep on unknown profile = %d", rec.Code)
	}
	if !strings.Contains(metricsBody(t, s), "lumosd_request_errors_total 1") {
		t.Error("error not booked in lumosd_request_errors_total")
	}
	stats := decodeBody[StatsResponse](t, do(t, s, "GET", "/v1/stats", nil))
	if stats.Requests.Errors != 1 {
		t.Fatalf("stats errors = %d, want 1", stats.Requests.Errors)
	}
}

// TestServerClose checks shutdown semantics: Close is idempotent, and a
// closed server's disk cache stops accepting entries (requests still
// succeed — the cache degrades to miss, it never fails a campaign).
func TestServerClose(t *testing.T) {
	s := New(Config{Seed: 42, CacheDir: t.TempDir()})
	createProfile(t, s, "fig7", http.StatusCreated)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if rec := do(t, s, "POST", "/v1/sweep", SweepRequest{Profile: "fig7"}); rec.Code != http.StatusOK {
		t.Fatalf("sweep after close = %d: %s", rec.Code, rec.Body.String())
	}
}

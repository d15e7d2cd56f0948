package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"lumos"
	"lumos/internal/trace"
)

// testDeployment is the fig7-style base used across server tests: GPT-3
// 15B at TP2×PP2×DP1 with 4 microbatches — small enough to profile on the
// simulated substrate in test time.
func testDeployment() Deployment {
	return Deployment{Model: "15b", TP: 2, PP: 2, DP: 1, Microbatches: 4}
}

func do(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func decodeBody[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", rec.Body.String(), err)
	}
	return v
}

func seedPtr(v uint64) *uint64 { return &v }

// createProfile registers a seed-sourced profile and asserts the expected
// status code.
func createProfile(t *testing.T, s *Server, name string, wantCode int) ProfileInfo {
	t.Helper()
	rec := do(t, s, "POST", "/v1/profiles", ProfileRequest{
		Name:       name,
		Deployment: testDeployment(),
		Seed:       seedPtr(42),
	})
	if rec.Code != wantCode {
		t.Fatalf("POST /v1/profiles = %d, want %d: %s", rec.Code, wantCode, rec.Body.String())
	}
	if wantCode >= 400 {
		return ProfileInfo{}
	}
	return decodeBody[ProfileInfo](t, rec)
}

func TestProfileRegistry(t *testing.T) {
	s := New(Config{Seed: 42})

	created := createProfile(t, s, "fig7", http.StatusCreated)
	if !created.Created || created.Fingerprint == "" || created.World != 4 {
		t.Fatalf("unexpected create response: %+v", created)
	}

	// Idempotent re-upload: same name, same content.
	again := createProfile(t, s, "fig7", http.StatusOK)
	if again.Created || again.Fingerprint != created.Fingerprint {
		t.Fatalf("re-upload not idempotent: %+v vs %+v", again, created)
	}

	// Immutability: same name, different content.
	rec := do(t, s, "POST", "/v1/profiles", ProfileRequest{
		Name:       "fig7",
		Deployment: Deployment{Model: "15b", TP: 2, PP: 2, DP: 1, Microbatches: 8},
		Seed:       seedPtr(42),
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("conflicting re-upload = %d, want 409: %s", rec.Code, rec.Body.String())
	}

	list := decodeBody[ProfileList](t, do(t, s, "GET", "/v1/profiles", nil))
	if len(list.Profiles) != 1 || list.Profiles[0].Name != "fig7" {
		t.Fatalf("unexpected profile list: %+v", list)
	}

	// Request validation.
	for name, req := range map[string]ProfileRequest{
		"empty name":  {Deployment: testDeployment(), Seed: seedPtr(1)},
		"bad name":    {Name: "no spaces", Deployment: testDeployment(), Seed: seedPtr(1)},
		"no source":   {Name: "ok", Deployment: testDeployment()},
		"two sources": {Name: "ok", Deployment: testDeployment(), Seed: seedPtr(1), TraceDir: "/tmp/x"},
		"bad model":   {Name: "ok", Deployment: Deployment{Model: "gpt9"}, Seed: seedPtr(1)},
	} {
		if rec := do(t, s, "POST", "/v1/profiles", req); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400: %s", name, rec.Code, rec.Body.String())
		}
	}
}

// TestSweepDeterministicAcrossWorkers is the multi-tenant acceptance
// check: the same campaign must produce byte-identical response bodies at
// 1 and at 8 server workers, and across concurrent requests interleaving
// on the shared campaign state.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	req := SweepRequest{
		Profile:   "fig7",
		PPRange:   []int{1, 2},
		DPRange:   []int{1, 2},
		Schedules: []string{"1f1b", "gpipe"},
		WhatIf:    true,
	}

	bodies := map[int][]byte{}
	for _, workers := range []int{1, 8} {
		s := New(Config{Seed: 42, Workers: workers})
		createProfile(t, s, "fig7", http.StatusCreated)
		rec := do(t, s, "POST", "/v1/sweep", req)
		if rec.Code != http.StatusOK {
			t.Fatalf("workers=%d: sweep = %d: %s", workers, rec.Code, rec.Body.String())
		}
		bodies[workers] = rec.Body.Bytes()

		// Concurrent tenants on the same profile agree byte-for-byte.
		const tenants = 4
		var wg sync.WaitGroup
		got := make([][]byte, tenants)
		for i := 0; i < tenants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rec := do(t, s, "POST", "/v1/sweep", req)
				if rec.Code == http.StatusOK {
					got[i] = rec.Body.Bytes()
				}
			}(i)
		}
		wg.Wait()
		for i, b := range got {
			if !bytes.Equal(b, bodies[workers]) {
				t.Fatalf("workers=%d: concurrent request %d diverged", workers, i)
			}
		}
	}
	if !bytes.Equal(bodies[1], bodies[8]) {
		t.Fatalf("sweep bodies differ between 1 and 8 workers:\n%s\nvs\n%s", bodies[1], bodies[8])
	}

	var resp SweepResponse
	if err := json.Unmarshal(bodies[8], &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Scenarios == 0 || len(resp.Results) == 0 || resp.Base.IterationMs <= 0 {
		t.Fatalf("degenerate sweep response: %+v", resp)
	}
}

// TestPlanWarmStartSharedCacheDir reproduces the ISSUE acceptance flow
// over HTTP: a second server instance (fresh process state) at the same
// cache dir returns a byte-identical plan, reports disk hits, and never
// refits the kernel model.
func TestPlanWarmStartSharedCacheDir(t *testing.T) {
	dir := t.TempDir()
	req := PlanRequest{
		Profile:  "fig7",
		PPRange:  []int{1, 2},
		DPRange:  []int{1, 2},
		MBRange:  []int{4, 8},
		Strategy: "exhaustive",
	}

	cold := New(Config{Seed: 42, CacheDir: dir})
	createProfile(t, cold, "fig7", http.StatusCreated)
	recCold := do(t, cold, "POST", "/v1/plan", req)
	if recCold.Code != http.StatusOK {
		t.Fatalf("cold plan = %d: %s", recCold.Code, recCold.Body.String())
	}

	warm := New(Config{Seed: 42, CacheDir: dir})
	createProfile(t, warm, "fig7", http.StatusCreated)
	recWarm := do(t, warm, "POST", "/v1/plan", req)
	if recWarm.Code != http.StatusOK {
		t.Fatalf("warm plan = %d: %s", recWarm.Code, recWarm.Body.String())
	}
	if !bytes.Equal(recCold.Body.Bytes(), recWarm.Body.Bytes()) {
		t.Fatalf("warm plan diverged from cold:\n%s\nvs\n%s", recCold.Body.String(), recWarm.Body.String())
	}
	if _, libs := warm.Toolkit().Counters(); libs != 0 {
		t.Fatalf("warm server rebuilt the kernel library %d times, want 0", libs)
	}

	stats := decodeBody[StatsResponse](t, do(t, warm, "GET", "/v1/stats", nil))
	if stats.Disk == nil {
		t.Fatal("stats missing disk section with a cache dir configured")
	}
	if len(stats.Profiles) != 1 || stats.Profiles[0].DiskHits == 0 {
		t.Fatalf("warm server reported no disk hits: %+v", stats.Profiles)
	}
	if stats.Requests.Plans != 1 || stats.Requests.Profiles != 1 {
		t.Fatalf("unexpected request counters: %+v", stats.Requests)
	}

	var resp PlanResponse
	if err := json.Unmarshal(recWarm.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Frontier) == 0 || resp.Best == nil || resp.Stats.Simulated == 0 {
		t.Fatalf("degenerate plan response: %+v", resp)
	}
}

// TestPlanBnBStats posts a branch-and-bound plan and checks the pruning
// and shared-structure counters flow through the response and into the
// GET /v1/stats aggregate.
func TestPlanBnBStats(t *testing.T) {
	s := New(Config{Seed: 42})
	createProfile(t, s, "fig7", http.StatusCreated)
	req := PlanRequest{
		Profile:  "fig7",
		PPRange:  []int{1, 2},
		MBRange:  []int{4, 8},
		Degrade:  []float64{0.5},
		Strategy: "bnb",
	}
	resp := decodeBody[PlanResponse](t, do(t, s, "POST", "/v1/plan", req))
	if resp.Strategy != "bnb" {
		t.Fatalf("strategy = %q, want bnb", resp.Strategy)
	}
	if resp.Best == nil || resp.Stats.Simulated == 0 {
		t.Fatalf("degenerate bnb response: %+v", resp)
	}
	if resp.Stats.BoundPruned+resp.Stats.DominatedPruned == 0 {
		t.Fatalf("bnb pruned nothing: %+v", resp.Stats)
	}
	if resp.Stats.SharedStructure == 0 {
		t.Fatalf("degrade points did not share structure: %+v", resp.Stats)
	}

	stats := decodeBody[StatsResponse](t, do(t, s, "GET", "/v1/stats", nil))
	if got, want := stats.Search.Simulated, int64(resp.Stats.Simulated); got != want {
		t.Fatalf("aggregate simulated %d, want %d", got, want)
	}
	if got, want := stats.Search.BoundPruned, int64(resp.Stats.BoundPruned); got != want {
		t.Fatalf("aggregate bound-pruned %d, want %d", got, want)
	}
	if got, want := stats.Search.DominatedPruned, int64(resp.Stats.DominatedPruned); got != want {
		t.Fatalf("aggregate dominated-pruned %d, want %d", got, want)
	}
	if got, want := stats.Search.SharedStructure, int64(resp.Stats.SharedStructure); got != want {
		t.Fatalf("aggregate shared-structure %d, want %d", got, want)
	}
	if stats.Engine.CompiledPrograms == 0 || stats.Engine.CompiledRuns == 0 {
		t.Fatalf("stats report no compiled-engine activity: %+v", stats.Engine)
	}
}

func TestRequestValidation(t *testing.T) {
	s := New(Config{Seed: 42})
	createProfile(t, s, "fig7", http.StatusCreated)

	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"sweep unknown profile", "/v1/sweep", SweepRequest{Profile: "nope"}, http.StatusNotFound},
		{"sweep no profile", "/v1/sweep", SweepRequest{}, http.StatusBadRequest},
		{"sweep bad fabric", "/v1/sweep", SweepRequest{Profile: "fig7", Fabrics: []string{"warpdrive"}}, http.StatusBadRequest},
		{"sweep bad schedule", "/v1/sweep", SweepRequest{Profile: "fig7", Schedules: []string{"llm"}}, http.StatusBadRequest},
		{"sweep bad arch", "/v1/sweep", SweepRequest{Profile: "fig7", Archs: []string{"v9"}}, http.StatusBadRequest},
		{"plan unknown profile", "/v1/plan", PlanRequest{Profile: "nope"}, http.StatusNotFound},
		{"plan bad strategy", "/v1/plan", PlanRequest{Profile: "fig7", Strategy: "quantum"}, http.StatusBadRequest},
		{"plan removed strategy", "/v1/plan", PlanRequest{Profile: "fig7", Strategy: "halving"}, http.StatusBadRequest},
		{"plan bad zero", "/v1/plan", PlanRequest{Profile: "fig7", ZeRO: 3}, http.StatusBadRequest},
		{"plan bad fabric", "/v1/plan", PlanRequest{Profile: "fig7", Fabrics: []string{"warpdrive"}}, http.StatusBadRequest},
		{"sweep infinite oversubscription", "/v1/sweep", SweepRequest{Profile: "fig7", Fabrics: []string{"spineinf"}}, http.StatusBadRequest},
		{"sweep NaN oversubscription", "/v1/sweep", SweepRequest{Profile: "fig7", Fabrics: []string{"spineNaN"}}, http.StatusBadRequest},
		{"plan infinite oversubscription", "/v1/plan", PlanRequest{Profile: "fig7", Fabrics: []string{"spine+Inf"}}, http.StatusBadRequest},
		{"plan spine below the bandwidth floor", "/v1/plan", PlanRequest{Profile: "fig7", Fabrics: []string{"spine1e12"}}, http.StatusBadRequest},
	}
	for _, c := range cases {
		if rec := do(t, s, "POST", c.path, c.body); rec.Code != c.want {
			t.Errorf("%s: code %d, want %d: %s", c.name, rec.Code, c.want, rec.Body.String())
		}
	}

	// Malformed JSON and wrong methods.
	req := httptest.NewRequest("POST", "/v1/sweep", bytes.NewReader([]byte("{nope")))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: code %d, want 400", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/sweep", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/sweep: code %d, want 405", rec.Code)
	}
	if rec := do(t, s, "GET", "/v1/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("healthz: code %d, want 200", rec.Code)
	}
}

// TestInlineTraceUpload exercises the third profile source: per-rank
// Kineto JSON documents inline in the request body, which must land on
// the same fingerprint as a trace-dir upload of the same profile.
func TestInlineTraceUpload(t *testing.T) {
	s := New(Config{Seed: 42})
	dep := testDeployment()
	cfg, err := dep.config()
	if err != nil {
		t.Fatal(err)
	}
	m, err := s.Toolkit().Profile(t.Context(), cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	var raws []rawTrace
	for _, tr := range m.Ranks {
		var buf bytes.Buffer
		if err := trace.EncodeJSON(&buf, tr); err != nil {
			t.Fatal(err)
		}
		raws = append(raws, rawTrace(buf.Bytes()))
	}
	rec := do(t, s, "POST", "/v1/profiles", ProfileRequest{Name: "inline", Deployment: dep, Traces: raws})
	if rec.Code != http.StatusCreated {
		t.Fatalf("inline upload = %d: %s", rec.Code, rec.Body.String())
	}
	info := decodeBody[ProfileInfo](t, rec)
	if info.Ranks != 4 || info.IterationMs <= 0 {
		t.Fatalf("unexpected inline profile: %+v", info)
	}

	// A trace-dir upload of the same profile lands on the same content
	// fingerprint: both sources decode through the same Kineto reader.
	dir := t.TempDir()
	if err := lumos.SaveTraces(m, dir); err != nil {
		t.Fatal(err)
	}
	rec = do(t, s, "POST", "/v1/profiles", ProfileRequest{Name: "fromdir", Deployment: dep, TraceDir: dir})
	if rec.Code != http.StatusCreated {
		t.Fatalf("trace_dir upload = %d: %s", rec.Code, rec.Body.String())
	}
	fromDir := decodeBody[ProfileInfo](t, rec)
	if fromDir.Fingerprint != info.Fingerprint {
		t.Fatalf("inline fingerprint %s != trace_dir fingerprint %s", info.Fingerprint, fromDir.Fingerprint)
	}
}

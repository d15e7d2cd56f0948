// Observe: the self-tracing and metrics layer end-to-end — and the `make
// obs-smoke` CI gate. Two halves:
//
// In-process, it carries a Tracer in the context of a branch-and-bound
// plan over the Figure 7 space, exports the Chrome trace-event JSON, and
// re-parses it, exiting non-zero unless every campaign pipeline stage
// (prepare, profile, calibrate, sweep, plan), the per-scenario spans
// (synthesize, compile, replay), and the per-round search instants (pop,
// simulate) each appear at least once — i.e. the artifact a user would
// drop into ui.perfetto.dev actually shows the search.
//
// Over the wire, it stands up lumosd, uploads a seed profile, runs the
// same plan, and scrapes GET /metrics and GET /v1/healthz: the exposition
// must parse under the Prometheus text grammar, carry the per-endpoint
// request-latency histogram, and report counter values identical to the
// GET /v1/stats JSON — one storage, two views.
//
// Then it exercises the flight recorder: a traced plan ("trace": true)
// must echo a trace id, the trace must be listed on GET /v1/traces and
// retrievable by id as a document obs.ParseTrace accepts with exactly one
// plan pipeline span, and the attached explain report's simulated and
// pruned totals must equal the response's own search stats.
//
//	go run ./examples/observe
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"lumos"
	"lumos/internal/server"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	if err := traceHalf(); err != nil {
		return err
	}
	if err := serviceHalf(); err != nil {
		return err
	}
	fmt.Println("obs-smoke OK: trace covers every pipeline stage, /metrics agrees with /v1/stats, and the flight recorder round-trips")
	return nil
}

// traceHalf runs a traced bnb plan and asserts span coverage.
func traceHalf() error {
	cfg, err := lumos.DeploymentConfig(lumos.GPT3_15B(), 2, 2, 1)
	if err != nil {
		return err
	}
	cfg.Microbatches = 4

	tracer := lumos.NewTracer()
	tk := lumos.New(lumos.WithSeed(42))
	// The degrade axis matters: degraded points re-time the structurally
	// shared graph, which is the path that emits compile/retime/replay
	// spans (campaign-fabric points stop at synthesize). The factor scales
	// every tier, NVLink included: these points fit in one NVLink node, so
	// a network-only factor would change no duration and skip the replay.
	space := lumos.Space{
		PP: []int{1, 2}, DP: []int{1, 2}, Microbatch: []int{4, 8},
		Degrade: [][]float64{nil, {0.5}},
	}
	res, err := tk.Plan(lumos.ContextWithTracer(context.Background(), tracer), cfg, space,
		lumos.WithPlanStrategy(lumos.BranchAndBoundStrategy()))
	if err != nil {
		return err
	}
	best, ok := res.Best()
	if !ok {
		return fmt.Errorf("obs-smoke FAILED: bnb plan found no best point")
	}

	work, err := os.MkdirTemp("", "lumos-observe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	path := filepath.Join(work, "search.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.Export(f); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := lumos.ParseTraceEvents(data)
	if err != nil {
		return fmt.Errorf("obs-smoke FAILED: exported trace does not parse: %w", err)
	}

	seen := map[string]int{}
	for _, e := range events {
		seen[e.Cat+"/"+e.Name]++
		if e.Ph == "X" && e.Dur < 0 {
			return fmt.Errorf("obs-smoke FAILED: span %s/%s has negative duration", e.Cat, e.Name)
		}
	}
	for _, want := range []string{
		"pipeline/prepare", "pipeline/profile", "pipeline/calibrate",
		"pipeline/sweep", "pipeline/plan",
		"scenario/synthesize", "scenario/compile", "scenario/replay",
		"search/pop", "search/simulate",
	} {
		if seen[want] == 0 {
			return fmt.Errorf("obs-smoke FAILED: trace has no %s event (have %v)", want, seen)
		}
	}
	fmt.Printf("traced bnb plan: best %s, %d trace events, every pipeline stage covered\n",
		best.Point.Key(), len(events))
	return nil
}

// serviceHalf scrapes a live lumosd and cross-checks /metrics against
// /v1/stats and /v1/healthz.
func serviceHalf() error {
	srv := server.New(server.Config{Seed: 42})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	profileReq := map[string]any{
		"name": "fig7",
		"deployment": map[string]any{
			"model": "15b", "tp": 2, "pp": 2, "dp": 1, "microbatches": 4,
		},
		"seed": 42,
	}
	if _, err := postRaw(base+"/v1/profiles", profileReq); err != nil {
		return fmt.Errorf("uploading profile: %w", err)
	}
	planReq := map[string]any{
		"profile": "fig7", "pp_range": []int{1, 2}, "mb_range": []int{4, 8}, "strategy": "bnb",
	}
	if _, err := postRaw(base+"/v1/plan", planReq); err != nil {
		return fmt.Errorf("plan: %w", err)
	}

	var health struct {
		Status    string `json:"status"`
		GoVersion string `json:"go_version"`
	}
	if err := getJSON(base+"/v1/healthz", &health); err != nil {
		return err
	}
	if health.Status != "ok" || health.GoVersion == "" {
		return fmt.Errorf("obs-smoke FAILED: bad healthz response %+v", health)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obs-smoke FAILED: GET /metrics = %s", resp.Status)
	}
	metrics, err := parseExposition(string(body))
	if err != nil {
		return fmt.Errorf("obs-smoke FAILED: /metrics is not valid Prometheus text: %w", err)
	}

	var stats struct {
		Requests struct {
			Profiles int64 `json:"profiles"`
			Plans    int64 `json:"plans"`
		} `json:"requests"`
		Search struct {
			Simulated int64 `json:"simulated"`
		} `json:"search"`
		Engine struct {
			SkippedRuns int64 `json:"skipped_runs"`
		} `json:"engine"`
	}
	if err := getJSON(base+"/v1/stats", &stats); err != nil {
		return err
	}
	for _, c := range []struct {
		series string
		want   float64
	}{
		{"lumosd_profiles_created_total", float64(stats.Requests.Profiles)},
		{"lumosd_plans_total", float64(stats.Requests.Plans)},
		{"lumosd_plan_simulated_total", float64(stats.Search.Simulated)},
		{"lumos_engine_skipped_runs_total", float64(stats.Engine.SkippedRuns)},
		{`lumosd_requests_total{handler="plan"}`, 1},
		{`lumosd_request_duration_seconds_count{handler="plan"}`, 1},
	} {
		got, ok := metrics[c.series]
		if !ok {
			return fmt.Errorf("obs-smoke FAILED: /metrics missing series %s", c.series)
		}
		if got != c.want {
			return fmt.Errorf("obs-smoke FAILED: %s = %g on /metrics but %g on /v1/stats", c.series, got, c.want)
		}
	}
	fmt.Printf("lumosd scrape: %d series parsed, request histograms present, counters match /v1/stats\n", len(metrics))

	// Flight recorder: run a traced plan, retrieve its trace by id, and
	// check the explain report accounts for the response's own stats.
	var planResp struct {
		TraceID string `json:"trace_id"`
		Stats   struct {
			Simulated       int `json:"simulated"`
			BoundPruned     int `json:"bound_pruned"`
			DominatedPruned int `json:"dominated_pruned"`
		} `json:"stats"`
	}
	tracedReq := map[string]any{
		"profile": "fig7", "pp_range": []int{1, 2}, "mb_range": []int{4, 8},
		"strategy": "bnb", "trace": true,
	}
	body, err = postRaw(base+"/v1/plan", tracedReq)
	if err != nil {
		return fmt.Errorf("traced plan: %w", err)
	}
	if err := json.Unmarshal(body, &planResp); err != nil {
		return err
	}
	if planResp.TraceID == "" {
		return fmt.Errorf("obs-smoke FAILED: traced plan response carries no trace_id")
	}

	var list struct {
		Traces []struct {
			ID       string `json:"id"`
			Endpoint string `json:"endpoint"`
			Profile  string `json:"profile"`
		} `json:"traces"`
	}
	if err := getJSON(base+"/v1/traces", &list); err != nil {
		return err
	}
	found := false
	for _, info := range list.Traces {
		if info.ID == planResp.TraceID {
			found = info.Endpoint == "plan" && info.Profile == "fig7"
		}
	}
	if !found {
		return fmt.Errorf("obs-smoke FAILED: trace %s not listed as a fig7 plan on GET /v1/traces", planResp.TraceID)
	}

	resp, err = http.Get(base + "/v1/traces/" + planResp.TraceID)
	if err != nil {
		return err
	}
	doc, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("obs-smoke FAILED: GET /v1/traces/%s = %s", planResp.TraceID, resp.Status)
	}
	if err != nil {
		return err
	}
	events, err := lumos.ParseTraceEvents(doc)
	if err != nil {
		return fmt.Errorf("obs-smoke FAILED: served trace does not parse: %w", err)
	}
	planSpans := 0
	for _, e := range events {
		if e.Ph == "X" && e.Cat == "pipeline" && e.Name == "plan" {
			planSpans++
		}
	}
	if planSpans != 1 {
		return fmt.Errorf("obs-smoke FAILED: trace %s has %d pipeline/plan spans, want exactly 1", planResp.TraceID, planSpans)
	}

	var traced struct {
		Explain struct {
			Simulated []json.RawMessage `json:"simulated"`
			Pruned    []struct {
				Points int `json:"points"`
			} `json:"pruned"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(doc, &traced); err != nil {
		return err
	}
	if got, want := len(traced.Explain.Simulated), planResp.Stats.Simulated; got != want {
		return fmt.Errorf("obs-smoke FAILED: explain has %d simulated records, response stats report %d", got, want)
	}
	pruned := 0
	for _, p := range traced.Explain.Pruned {
		pruned += p.Points
	}
	if want := planResp.Stats.BoundPruned + planResp.Stats.DominatedPruned; pruned != want {
		return fmt.Errorf("obs-smoke FAILED: explain prunes %d points, response stats report %d", pruned, want)
	}
	fmt.Printf("flight recorder: trace %s retrieved (%d events), explain matches stats (%d simulated, %d pruned)\n",
		planResp.TraceID, len(events), planResp.Stats.Simulated, pruned)
	return nil
}

// parseExposition checks the Prometheus text grammar line by line and
// returns series values: every non-comment line must be `name{labels} value`
// with a parseable float, and every series must follow a # TYPE for its
// family.
func parseExposition(body string) (map[string]float64, error) {
	typed := map[string]bool{}
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return nil, fmt.Errorf("bad TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") || strings.TrimSpace(line) == "" {
			continue
		}
		sp := strings.LastIndex(line, " ")
		if sp < 0 {
			return nil, fmt.Errorf("bad sample line %q", line)
		}
		series, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value on %q: %w", line, err)
		}
		family := series
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f := strings.TrimSuffix(family, suffix); f != family && typed[f] {
				family = f
				break
			}
		}
		if !typed[family] {
			return nil, fmt.Errorf("series %q has no # TYPE for family %q", series, family)
		}
		out[series] = v
	}
	return out, nil
}

func postRaw(url string, body any) ([]byte, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, out.String())
	}
	return out.Bytes(), nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

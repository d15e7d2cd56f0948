package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lumos"
)

// lumosd is a running lumosd child process built from the tree.
type lumosd struct {
	cmd       *exec.Cmd
	base      string // http://host:port of the API
	debugBase string // http://host:port of pprof
	client    *http.Client
	done      chan error
	log       *os.File
}

// freeAddr reserves a loopback port for a child to listen on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startLumosd spawns lumosd with its default options on loopback ports and
// waits until /v1/healthz answers. Its log goes to a file in logDir.
func startLumosd(ctx context.Context, bin, logDir string) (*lumosd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debugAddr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(logDir, "lumosd-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", addr, "-debug-addr", debugAddr)
	cmd.Stdout = logf
	cmd.Stderr = logf
	// Should the benchmark die without stopping it, the kernel kills lumosd
	// too, so no run leaves a daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting lumosd: %w", err)
	}
	d := &lumosd{
		cmd:       cmd,
		base:      "http://" + addr,
		debugBase: "http://" + debugAddr,
		client: &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
		done: make(chan error, 1),
		log:  logf,
	}
	go func() { d.done <- cmd.Wait() }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var h struct {
			Status string `json:"status"`
		}
		if code, _, err := d.get(ctx, d.base+"/v1/healthz", &h); err == nil && code == http.StatusOK && h.Status == "ok" {
			return d, nil
		}
		select {
		case err := <-d.done:
			d.done <- err
			d.stop()
			return nil, fmt.Errorf("lumosd exited before becoming healthy: %v (log %s)", err, logf.Name())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("lumosd did not become healthy within 30s")
		}
	}
}

// stop asks lumosd to drain and exit, kills it if it lingers, and waits
// for it.
func (d *lumosd) stop() {
	if d == nil {
		return
	}
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
}

func (d *lumosd) get(ctx context.Context, url string, out any) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	return d.do(req, out)
}

func (d *lumosd) post(ctx context.Context, path string, body, out any) (int, []byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.base+path, bytes.NewReader(data))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return d.do(req, out)
}

// do sends req and decodes a 200 body into out (when non-nil).
func (d *lumosd) do(req *http.Request, out any) (int, []byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, body, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			return resp.StatusCode, body, fmt.Errorf("decoding %s: %w", req.URL.Path, err)
		}
	}
	return resp.StatusCode, body, nil
}

// promValues scrapes /metrics and returns the named series' values.
func (d *lumosd) promValues(ctx context.Context, series ...string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	_, body, err := d.do(req, nil)
	if err != nil {
		return nil, err
	}
	want := map[string]bool{}
	for _, s := range series {
		want[s] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") || !want[line[:i]] {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", line[:i], err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// totalAlloc reads the runtime's cumulative heap allocation from the
// pprof heap profile's MemStats trailer.
func (d *lumosd) totalAlloc(ctx context.Context) (float64, error) {
	_, body, err := d.get(ctx, d.debugBase+"/debug/pprof/heap?debug=1", nil)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, errors.New("no TotalAlloc in the heap profile")
}

// Wire types of the lumosd API, limited to the fields the benchmark reads.
type (
	profileRequest struct {
		Name       string         `json:"name"`
		Deployment deploymentJSON `json:"deployment"`
		TraceDir   string         `json:"trace_dir,omitempty"`
		Seed       *uint64        `json:"seed,omitempty"`
	}
	deploymentJSON struct {
		Model        string `json:"model"`
		TP           int    `json:"tp"`
		PP           int    `json:"pp"`
		DP           int    `json:"dp"`
		Microbatches int    `json:"microbatches"`
	}
	profileInfo struct {
		IterationMs float64 `json:"iteration_ms"`
	}
	planPoint struct {
		Point       string  `json:"point"`
		IterationMs float64 `json:"iteration_ms"`
	}
	planResponse struct {
		Frontier  []planPoint `json:"frontier"`
		Dominated []planPoint `json:"dominated"`
		Best      *planPoint  `json:"best"`
		Stats     struct {
			SpaceSize       int `json:"space_size"`
			Simulated       int `json:"simulated"`
			Rounds          int `json:"rounds"`
			BoundPruned     int `json:"bound_pruned"`
			SharedStructure int `json:"shared_structure"`
		} `json:"stats"`
		TraceID string `json:"trace_id"`
	}
	traceDoc struct {
		TraceEvents []lumos.TraceEvent `json:"traceEvents"`
		DurationMs  float64            `json:"duration_ms"`
		Explain     struct {
			Simulated []lumos.PlanExplainSim `json:"simulated"`
		} `json:"explain"`
	}
)

func fig7Deployment() deploymentJSON {
	return deploymentJSON{Model: "15b", TP: 2, PP: 2, DP: 2, Microbatches: 8}
}

// servePlan drives a lumosd child: the fig7 profile registered by trace
// directory, then two clients POSTing branch-and-bound plans back to back.
// After the first request the structural graphs are shared, so ops are
// planner search, retime, compiled replay and the HTTP/JSON/explain path.
type servePlan struct {
	env *env
	d   *lumosd
	// warmupTrace is the sequence number of the warm-up plan's trace; the
	// timed phase's traces follow it.
	warmupTrace int
}

// clients is two closed-loop clients: as many as the 2-CPU reference host
// has cores, fixed so the load is the same on every host.
func (w *servePlan) clients() int { return 2 }

func (w *servePlan) setup(ctx context.Context, tr *lumos.Tracer) error {
	root := tr.Start(benchCat, "setup serve-plan")
	defer root.End()
	sp := root.Child("spawn lumosd")
	d, err := startLumosd(ctx, w.env.lumosd, w.env.logDir)
	sp.End()
	if err != nil {
		return err
	}
	w.d = d
	dir, err := filepath.Abs(w.env.profileDir)
	if err != nil {
		return err
	}
	sp = root.Child("POST /v1/profiles")
	_, _, err = d.post(ctx, "/v1/profiles", profileRequest{Name: "fig7", Deployment: fig7Deployment(), TraceDir: dir}, nil)
	sp.End()
	if err != nil {
		return err
	}
	sp = root.Child("POST /v1/plan")
	q := servePlanQuestion(w.env.seed, 0)
	q.Trace = true
	var resp planResponse
	_, _, err = d.post(ctx, "/v1/plan", q, &resp)
	sp.End()
	if err != nil {
		return fmt.Errorf("warm-up plan: %w", err)
	}
	w.warmupTrace = traceSeq(resp.TraceID)
	return checkPlan(&resp)
}

// traceSeq is the sequence number of a flight-recorder id ("tr-12"), or -1.
func traceSeq(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "tr-"))
	if err != nil {
		return -1
	}
	return n
}

func (w *servePlan) teardown() {
	w.d.stop()
	w.d = nil
}

func (w *servePlan) op(ctx context.Context, k int, tr *lumos.Tracer) opResult {
	q := servePlanQuestion(w.env.seed, k)
	q.Trace = tr != nil
	root := tr.Start(benchCat, "POST /v1/plan")
	root.Annotate("question", k)
	var resp planResponse
	t0 := time.Now()
	_, body, err := w.d.post(ctx, "/v1/plan", q, &resp)
	wall := time.Since(t0)
	root.End()
	if err == nil {
		err = checkPlan(&resp)
	}
	out := opResult{wall: wall, err: err}
	if err != nil {
		return out
	}
	out.judged = true
	out.inverted = inverted(&resp)
	if tr == nil {
		return out
	}
	var doc traceDoc
	if _, _, err := w.d.get(ctx, w.d.base+"/v1/traces/"+resp.TraceID, &doc); err != nil {
		out.err = fmt.Errorf("fetching trace %s: %w", resp.TraceID, err)
		return out
	}
	// The server's spans are timed from the handler's start; centre them
	// inside the client's request span, splitting the transport time.
	events := tr.Events()
	offset := 0.0
	for _, ev := range events {
		if ev.Cat == benchCat && ev.Ph == "X" {
			offset = ev.Ts + (ev.Dur-doc.DurationMs*1e3)/2
		}
	}
	for _, ev := range doc.TraceEvents {
		ev.Pid = 2
		ev.Ts += offset
		events = append(events, ev)
	}
	out.trace = &opTrace{
		wallS:     wall.Seconds(),
		events:    events,
		respBytes: len(body),
		plans: []planFacts{{
			spacePoints:     resp.Stats.SpaceSize,
			simulated:       resp.Stats.Simulated,
			boundPruned:     resp.Stats.BoundPruned,
			rounds:          resp.Stats.Rounds,
			sharedStructure: resp.Stats.SharedStructure,
			frontier:        len(resp.Frontier),
			boundRatios:     boundRatios(doc.Explain.Simulated),
		}},
	}
	return out
}

// checkPlan requires a decoded answer whose best point is on its frontier
// and whose space is the generated one.
func checkPlan(resp *planResponse) error {
	if resp.Stats.SpaceSize != serveSpaceSize {
		return fmt.Errorf("space_size %d, want %d", resp.Stats.SpaceSize, serveSpaceSize)
	}
	if resp.Best == nil {
		return errors.New("no best point")
	}
	for _, p := range resp.Frontier {
		if p.Point == resp.Best.Point && p.IterationMs == resp.Best.IterationMs {
			return nil
		}
	}
	return fmt.Errorf("best point %s is not on the frontier", resp.Best.Point)
}

// inverted reports whether the answer's best point is a degraded-bandwidth
// point predicted faster than the same point at full bandwidth.
func inverted(resp *planResponse) bool {
	key, _, degraded := strings.Cut(resp.Best.Point, "~bw*")
	if !degraded {
		return false
	}
	for _, list := range [][]planPoint{resp.Frontier, resp.Dominated} {
		for _, p := range list {
			if p.Point == key {
				return p.IterationMs > resp.Best.IterationMs
			}
		}
	}
	return false
}

func (w *servePlan) usage() (usage, error) {
	ctx := context.Background()
	peak, err := vmHWM(w.d.cmd.Process.Pid)
	if err != nil {
		return usage{}, err
	}
	alloc, err := w.d.totalAlloc(ctx)
	if err != nil {
		return usage{}, err
	}
	const sum, count = `lumosd_request_duration_seconds_sum{handler="plan"}`, `lumosd_request_duration_seconds_count{handler="plan"}`
	vals, err := w.d.promValues(ctx, "lumos_go_gc_cycles_total", sum, count)
	if err != nil {
		return usage{}, err
	}
	return usage{peakMiB: peak, allocBytes: alloc, gcCycles: vals["lumos_go_gc_cycles_total"], reqSum: vals[sum], reqCount: vals[count]}, nil
}

// setupLayers times the set-up layers lumosd runs inside POST /v1/profiles
// — trace decode, graph build and calibration — by calling the same public
// functions traced in this process.
func (w *servePlan) setupLayers(ctx context.Context, lt *layerTotals) error {
	tr := lumos.NewTracer()
	root := tr.Start(benchCat, "profile layers")
	m, err := loadTraces(w.env, root)
	if err == nil {
		_, err = lumos.New().PrepareTraces(lumos.ContextWithTracer(ctx, tr), w.env.cfg, m)
	}
	root.End()
	if err != nil {
		return err
	}
	foldSetup(lt, tr.Events(), w.env.profileMiB)
	return nil
}

// finishLayers derives the server's own time per plan request: the mean
// request duration lumosd measured minus the mean duration of the same
// requests' recorded traces. lumosd records every request; the "trace"
// flag only forces retention, so the ring holds the untraced ones too.
func (w *servePlan) finishLayers(lt *layerTotals, before, after usage, _ int) error {
	n := after.reqCount - before.reqCount
	var list struct {
		Traces []struct {
			ID         string  `json:"id"`
			Endpoint   string  `json:"endpoint"`
			DurationMs float64 `json:"duration_ms"`
		} `json:"traces"`
	}
	if _, _, err := w.d.get(context.Background(), w.d.base+"/v1/traces", &list); err != nil {
		return err
	}
	var durMs []float64
	for _, t := range list.Traces {
		if t.Endpoint == "plan" && traceSeq(t.ID) > w.warmupTrace {
			durMs = append(durMs, t.DurationMs)
		}
	}
	if n <= 0 || len(durMs) == 0 {
		return errors.New("no plan requests recorded by lumosd")
	}
	if float64(len(durMs)) != n {
		fmt.Fprintf(os.Stderr, "warning: %d of %d plan traces retained; server.self_ms compares different requests\n", len(durMs), int(n))
	}
	lt.serverSelfS = (after.reqSum-before.reqSum)/n - mean(durMs)/1e3
	return nil
}

// accuracy registers the accuracy panel in lumosd (seed-sourced profiles,
// replayed by lumosd), asks the fixed panel question and compares the
// answered frontier against ground truth.
func (w *servePlan) accuracy(ctx context.Context) (float64, float64, error) {
	replayed := func(ctx context.Context, p int) (float64, error) {
		seed := panelSeed(p)
		var info profileInfo
		_, _, err := w.d.post(ctx, "/v1/profiles", profileRequest{Name: fmt.Sprintf("panel-%d", p), Deployment: fig7Deployment(), Seed: &seed}, &info)
		return info.IterationMs * 1e6, err
	}
	replayErr, err := replayError(ctx, w.env.cfg, replayed)
	if err != nil {
		return 0, 0, err
	}
	q := servePlanQuestion(panelQuestionSeed, 0)
	q.Profile = "panel-0"
	var resp planResponse
	if _, _, err := w.d.post(ctx, "/v1/plan", q, &resp); err != nil {
		return 0, 0, err
	}
	if err := checkPlan(&resp); err != nil {
		return 0, 0, err
	}
	var preds []prediction
	for _, p := range resp.Frontier {
		pred, err := predictionFor(p, w.env.cfg)
		if err != nil {
			return 0, 0, err
		}
		if pred.cfg.Map.WorldSize() <= 32 {
			preds = append(preds, pred)
		}
	}
	predErr, err := predictionError(ctx, preds, 2)
	return predErr, replayErr, err
}

// predictionFor parses a plan point key ("TPxPPxDP/mbN/schedule~bw*1,f")
// into the deployment and fabric its ground truth runs on.
func predictionFor(p planPoint, base lumos.Config) (prediction, error) {
	key, bw, degraded := strings.Cut(p.Point, "~bw*")
	parts := strings.Split(key, "/")
	var tp, pp, dp, mb int
	if len(parts) < 2 {
		return prediction{}, fmt.Errorf("bad point key %q", p.Point)
	}
	if _, err := fmt.Sscanf(parts[0], "%dx%dx%d", &tp, &pp, &dp); err != nil {
		return prediction{}, fmt.Errorf("bad point key %q: %w", p.Point, err)
	}
	if _, err := fmt.Sscanf(parts[1], "mb%d", &mb); err != nil {
		return prediction{}, fmt.Errorf("bad point key %q: %w", p.Point, err)
	}
	cfg := base
	cfg.Map = lumos.Mapping{TP: tp, PP: pp, DP: dp}
	cfg.Microbatches = mb
	if len(parts) > 2 {
		var err error
		if cfg, err = lumos.WithScheduleSpec(cfg, parts[2]); err != nil {
			return prediction{}, err
		}
	}
	pred := prediction{name: p.Point, cfg: cfg, iter: p.IterationMs * 1e6}
	if degraded {
		var factors []float64
		for _, s := range strings.Split(bw, ",") {
			f, err := strconv.ParseFloat(s, 64)
			if err != nil || math.IsNaN(f) {
				return prediction{}, fmt.Errorf("bad degrade factor in %q", p.Point)
			}
			factors = append(factors, f)
		}
		f, err := lumos.DegradeFabric(lumos.H100Cluster(cfg.Map.WorldSize()), factors...)
		if err != nil {
			return prediction{}, err
		}
		pred.fabric = f
	}
	return pred, nil
}

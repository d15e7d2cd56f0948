package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"lumos/internal/model"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

func testConfig(t *testing.T) parallel.Config {
	t.Helper()
	m, err := topology.NewMapping(2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = 4
	return cfg
}

func TestEndToEndWorkflow(t *testing.T) {
	ctx := context.Background()
	tk := New()
	cfg := testConfig(t)

	traces, err := tk.Profile(ctx, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tk.BuildGraph(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := tk.Replay(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	rec := traces.Duration()
	if rep.Iteration <= 0 {
		t.Fatal("no iteration time")
	}
	rel := float64(rep.Iteration-rec) / float64(rec)
	if rel < -0.02 || rel > 0.02 {
		t.Fatalf("self-replay off by %.1f%%", 100*rel)
	}
	if rep.Breakdown.Total <= 0 {
		t.Fatal("no breakdown")
	}
	dp, err := tk.ReplayDPRO(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Iteration >= rep.Iteration {
		t.Fatal("dPRO should be optimistic")
	}
}

func TestReplayTracesShortcut(t *testing.T) {
	ctx := context.Background()
	tk := New()
	cfg := testConfig(t)
	traces, err := tk.Profile(ctx, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tk.ReplayTraces(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iteration <= 0 {
		t.Fatal("no result")
	}
}

func TestPredictViaToolkit(t *testing.T) {
	ctx := context.Background()
	tk := New()
	cfg := testConfig(t)
	traces, err := tk.Profile(ctx, cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := tk.EvaluateTraces(ctx, cfg, traces, ScaleDPScenario(2))
	if err != nil {
		t.Fatal(err)
	}
	if res := sweep.Results[0]; !res.Feasible() || res.Iteration <= 0 || res.World != 8 {
		t.Fatalf("prediction: %+v", res)
	}
}

// TestPredictTracesToContextTracer: a prediction records its calibrate and
// synthesize spans on a tracer carried in the context, as every other
// toolkit entry point does, so a request-scoped tracer sees the whole
// prediction.
func TestPredictTracesToContextTracer(t *testing.T) {
	tk := New()
	cfg := testConfig(t)
	traces, err := tk.Profile(context.Background(), cfg, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	if _, err := tk.EvaluateTraces(obs.ContextWithTracer(context.Background(), tr), cfg, traces, ScaleDPScenario(2)); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range tr.Events() {
		seen[e.Name] = true
	}
	if !seen["calibrate"] || !seen["synthesize"] {
		t.Fatalf("context tracer recorded no calibrate or synthesize span in %d events", len(tr.Events()))
	}
}

func TestContextCancellationShortCircuits(t *testing.T) {
	tk := New()
	cfg := testConfig(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tk.Profile(ctx, cfg, 1); err != context.Canceled {
		t.Fatalf("Profile: err = %v, want context.Canceled", err)
	}
	if _, err := tk.BuildGraph(ctx, nil); err != context.Canceled {
		t.Fatalf("BuildGraph: err = %v, want context.Canceled", err)
	}
	if _, err := tk.EvaluateTraces(ctx, cfg, &trace.Multi{}, ScaleDPScenario(2)); err != context.Canceled {
		t.Fatalf("EvaluateTraces: err = %v, want context.Canceled", err)
	}
}

func TestSaveLoadTraces(t *testing.T) {
	ctx := context.Background()
	tk := New()
	cfg := testConfig(t)
	traces, err := tk.Profile(ctx, cfg, 13)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "traces")
	if err := SaveTraces(traces, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTraces(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRanks() != traces.NumRanks() {
		t.Fatalf("ranks %d != %d", loaded.NumRanks(), traces.NumRanks())
	}
	if loaded.Events() != traces.Events() {
		t.Fatalf("events %d != %d", loaded.Events(), traces.Events())
	}
	// A replay of the persisted traces must agree with the in-memory one.
	a, err := tk.ReplayTraces(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tk.ReplayTraces(ctx, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if a.Iteration != b.Iteration {
		t.Fatalf("persisted replay %d != in-memory %d", b.Iteration, a.Iteration)
	}
}

// TestLoadTracesGappedRanks exercises the glob-based loader: a gap in the
// rank numbering (e.g. one rank's trace lost in transfer) must not silently
// truncate the set to the contiguous prefix.
func TestLoadTracesGappedRanks(t *testing.T) {
	ctx := context.Background()
	tk := New()
	cfg := testConfig(t) // 4 ranks
	traces, err := tk.Profile(ctx, cfg, 17)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "traces")
	if err := SaveTraces(traces, dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "rank_1.json")); err != nil {
		t.Fatal(err)
	}
	// A stray non-rank file must be ignored, not break parsing.
	if err := os.WriteFile(filepath.Join(dir, "rank_meta.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTraces(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumRanks() != traces.NumRanks()-1 {
		t.Fatalf("loaded %d ranks, want %d (gap must not truncate)", loaded.NumRanks(), traces.NumRanks()-1)
	}
	want := []int{0, 2, 3}
	for i, tr := range loaded.Ranks {
		if tr.Rank != want[i] {
			t.Fatalf("rank order %v at %d, want %v", tr.Rank, i, want[i])
		}
	}
	// The gapped set must stay usable end to end: graph construction sizes
	// rank-indexed state by the highest rank present, not the trace count.
	rep, err := tk.ReplayTraces(ctx, loaded)
	if err != nil {
		t.Fatalf("replaying gapped trace set: %v", err)
	}
	if rep.Iteration <= 0 {
		t.Fatal("no iteration time from gapped trace set")
	}
}

func TestLoadTracesErrors(t *testing.T) {
	if _, err := LoadTraces(filepath.Join(os.TempDir(), "definitely-not-here-12345")); err == nil {
		t.Fatal("missing directory must error")
	}
	empty := t.TempDir()
	if _, err := LoadTraces(empty); err == nil {
		t.Fatal("empty directory must error")
	}
}

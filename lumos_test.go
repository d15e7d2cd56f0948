package lumos

import (
	"context"
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd drives the whole toolkit through the public facade:
// profile → persist → reload → graph → replay → dPRO baseline → manipulate
// → what-if. This is the integration test a downstream user's first session
// corresponds to.
func TestPublicAPIEndToEnd(t *testing.T) {
	ctx := context.Background()
	tk := New()

	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Microbatches = 4

	traces, err := tk.Profile(ctx, cfg, 123)
	if err != nil {
		t.Fatal(err)
	}
	recorded := IterationTime(traces)
	if recorded <= 0 {
		t.Fatal("no iteration time")
	}

	// Persistence round trip.
	dir := t.TempDir()
	if err := SaveTraces(traces, dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTraces(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Replay from the reloaded traces.
	rep, err := tk.ReplayTraces(ctx, loaded)
	if err != nil {
		t.Fatal(err)
	}
	rel := float64(rep.Iteration-recorded) / float64(recorded)
	if rel < -0.02 || rel > 0.02 {
		t.Fatalf("replay err %.2f%% after persistence round trip", 100*rel)
	}
	sum := rep.Breakdown.ExposedCompute + rep.Breakdown.Overlapped +
		rep.Breakdown.ExposedComm + rep.Breakdown.Other
	if sum != rep.Breakdown.Total {
		t.Fatal("breakdown does not partition the iteration")
	}

	// Baseline comparison.
	dp, err := tk.ReplayDPRO(ctx, loaded)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Iteration >= rep.Iteration {
		t.Fatal("dPRO replay should be optimistic (shorter)")
	}

	// Manipulation through the single-shot trace path.
	scaled := cfg
	scaled.Map.DP = 4
	pred, err := tk.Predict(ctx, Request{Base: cfg, Target: scaled}, traces)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Trace.NumRanks() != 16 {
		t.Fatalf("scaled world = %d", pred.Trace.NumRanks())
	}

	// The trace-free direct-synthesis path must predict identically.
	gpred, err := tk.PredictGraph(ctx, Request{Base: cfg, Target: scaled}, traces)
	if err != nil {
		t.Fatal(err)
	}
	if gpred.Iteration != pred.Iteration {
		t.Fatalf("direct synthesis predicted %d, trace round trip %d", gpred.Iteration, pred.Iteration)
	}

	// Graph-level what-if through the toolkit.
	g, err := tk.BuildGraph(ctx, traces)
	if err != nil {
		t.Fatal(err)
	}
	free, err := tk.WhatIfScale(ctx, g, func(tk *Task) bool { return tk.Class == KCComm }, 0)
	if err != nil {
		t.Fatal(err)
	}
	if free >= rep.Iteration {
		t.Fatal("free communication cannot be slower")
	}
}

// TestManipulationScopeMatchesPaper verifies TP-change rejection through
// the public API, both the single-shot path (hard error) and the campaign
// path (infeasible result, campaign survives).
func TestManipulationScopeMatchesPaper(t *testing.T) {
	ctx := context.Background()
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	target := cfg
	target.Map.TP = 4
	tk := New()
	traces, err := tk.Profile(ctx, cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Predict(ctx, Request{Base: cfg, Target: target}, traces); err == nil {
		t.Fatal("tensor-parallel manipulation must be rejected (paper scope)")
	}

	sweep, err := tk.EvaluateTraces(ctx, cfg, traces,
		DeploymentScenario(GPT3_15B(), 4, 2, 2), // TP change: infeasible
		ScaleDPScenario(4),                      // fine
	)
	if err != nil {
		t.Fatal(err)
	}
	last := sweep.Results[len(sweep.Results)-1]
	if last.Feasible() {
		t.Fatal("TP-change scenario must rank last as infeasible")
	}
	if got := len(sweep.Top(10)); got != 1 {
		t.Fatalf("Top must exclude infeasible results, got %d", got)
	}
}

// TestDeploymentConfigValidation covers the public constructor's checks.
func TestDeploymentConfigValidation(t *testing.T) {
	if _, err := DeploymentConfig(GPT3_15B(), 0, 1, 1); err == nil {
		t.Fatal("TP=0 must fail")
	}
	if _, err := DeploymentConfig(GPT3_15B(), 2, 5, 1); err == nil {
		t.Fatal("48 layers over PP=5 must fail")
	}
	cfg, err := DeploymentConfig(GPT3_175B(), 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Map.WorldSize() != 64 {
		t.Fatalf("world = %d", cfg.Map.WorldSize())
	}
}

// TestPresetAccessors sanity-checks the re-exported presets.
func TestPresetAccessors(t *testing.T) {
	for _, a := range []Arch{
		GPT3_15B(), GPT3_44B(), GPT3_117B(), GPT3_175B(),
		GPT3_V1(), GPT3_V2(), GPT3_V3(), GPT3_V4(),
	} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

// TestPlanStrategyByName pins the one strategy menu the CLI and lumosd
// share: "" and "auto" leave the default rule, the two exact searches
// resolve by name in any case, and anything else — including the removed
// heuristics — is an error that lists the menu.
func TestPlanStrategyByName(t *testing.T) {
	for _, tc := range []struct {
		name, want string
	}{
		{"", ""}, {"auto", ""}, {" AUTO ", ""},
		{"exhaustive", "exhaustive"}, {"bnb", "bnb"}, {" BnB", "bnb"},
	} {
		s, err := PlanStrategyByName(tc.name)
		if err != nil {
			t.Fatalf("%q: %v", tc.name, err)
		}
		got := ""
		if s != nil {
			got = s.Name()
		}
		if got != tc.want {
			t.Errorf("%q resolved to %q, want %q", tc.name, got, tc.want)
		}
	}
	for _, name := range []string{"halving", "beam", "quantum"} {
		_, err := PlanStrategyByName(name)
		if err == nil || !strings.Contains(err.Error(), "auto|exhaustive|bnb") {
			t.Errorf("%q: error %v, want one naming auto|exhaustive|bnb", name, err)
		}
	}
}

package main

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"lumos"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {50, 0}, {99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

// latenciesOf builds n ops whose latencies are 1..n seconds, the last
// failed of them failed.
func latenciesOf(n, failed int) latencies {
	var l latencies
	for i := 1; i <= n; i++ {
		l.add(time.Duration(i)*time.Second, i > n-failed)
	}
	return l
}

func TestPercentilesCountFailuresAsInfinitelySlow(t *testing.T) {
	l := latenciesOf(100, 10)
	if got := l.failed(); got != 10 {
		t.Fatalf("failed() = %d, want 10", got)
	}
	// The 10 failures are the 10 slowest samples: p90 is the fastest op
	// that is not beyond it.
	if got := l.quantile(0.9); got != 90 {
		t.Errorf("p90 with 10 of 100 failed = %g, want 90", got)
	}
	if got := l.quantile(0.5); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	l = latenciesOf(100, 11)
	if got := l.quantile(0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 with 11 of 100 failed = %g, want +Inf", got)
	}
	if got := finite(l.quantile(0.9)); math.IsInf(got, 0) || got <= 100 {
		t.Errorf("finite(+Inf) = %g, want a large finite value", got)
	}
}

func TestFailPct(t *testing.T) {
	if got := failPct(0, 0); got != 0 {
		t.Errorf("failPct(0, 0) = %g", got)
	}
	if got := failPct(200, 3); got != 1.5 {
		t.Errorf("failPct(200, 3) = %g, want 1.5", got)
	}
}

// flaky is a workload whose every third question fails its answer check.
type flaky struct{}

func (flaky) clients() int                               { return 2 }
func (flaky) setup(context.Context, *lumos.Tracer) error { return nil }
func (flaky) teardown()                                  {}
func (flaky) usage() (usage, error)                      { return usage{}, nil }
func (flaky) accuracy(context.Context) (float64, float64, error) {
	return 0, 0, nil
}
func (flaky) setupLayers(context.Context, *layerTotals) error { return nil }
func (flaky) finishLayers(*layerTotals, usage, usage, int) error {
	return nil
}
func (flaky) op(_ context.Context, k int, _ *lumos.Tracer) opResult {
	time.Sleep(time.Millisecond)
	if k%3 == 0 {
		return opResult{wall: time.Millisecond, err: errors.New("wrong answer")}
	}
	return opResult{wall: time.Millisecond}
}

func TestTimedPhaseCountsFailures(t *testing.T) {
	p := timedPhase(context.Background(), flaky{}, 30*time.Millisecond, false, nil, nil, time.Now())
	attempted := len(p.lat)
	if attempted == 0 {
		t.Fatal("no ops attempted")
	}
	// Questions are numbered from 1 without gaps, whichever client takes
	// them, so every third one attempted failed.
	wantFailed := attempted / 3
	if got := p.lat.failed(); got != wantFailed {
		t.Errorf("failed = %d of %d, want %d", got, attempted, wantFailed)
	}
	if p.completed != attempted-wantFailed {
		t.Errorf("completed = %d, want %d", p.completed, attempted-wantFailed)
	}
}

func TestServePlanQuestionsAreSeeded(t *testing.T) {
	a, b := servePlanQuestion(7, 3), servePlanQuestion(7, 3)
	if !slices.Equal(a.Degrade, b.Degrade) {
		t.Fatal("same seed and op gave different questions")
	}
	if len(a.Degrade) != 16 || a.Degrade[0] != 1 {
		t.Fatalf("degrade = %v, want 1.0 plus 15 drawn factors", a.Degrade)
	}
	seen := map[float64]bool{}
	for _, f := range a.Degrade[1:] {
		if f < 0.5 || f >= 1 || seen[f] {
			t.Fatalf("drawn factor %g out of range or repeated", f)
		}
		seen[f] = true
	}
	fresh := func(q servePlanRequest) map[float64]bool {
		m := map[float64]bool{}
		for _, f := range q.Degrade[1:] {
			m[f] = true
		}
		return m
	}
	for _, other := range []servePlanRequest{servePlanQuestion(8, 3), servePlanQuestion(7, 4)} {
		for f := range fresh(other) {
			if seen[f] {
				t.Errorf("factor %g repeats across questions", f)
			}
		}
	}
	if got := len(a.PPRange) * len(a.DPRange) * len(a.MBRange) * len(a.Schedules) * len(a.Degrade); got != serveSpaceSize {
		t.Errorf("space size %d, want %d", got, serveSpaceSize)
	}
}

func TestSweepQuestionsAreSeeded(t *testing.T) {
	base := baseConfig()
	a, b := sweepWhatIfQuestion(5, 2, base), sweepWhatIfQuestion(5, 2, base)
	if strings.Join(a.Fresh, "|") != strings.Join(b.Fresh, "|") {
		t.Fatal("same seed and op gave different campaigns")
	}
	if len(a.Scenarios) != 37 || len(a.Fresh) != 18 || len(a.Repeated) != 19 || len(a.Fabric) != 3 {
		t.Fatalf("campaign has %d scenarios (%d fresh, %d repeated, %d fabric), want 37 (18, 19, 3)",
			len(a.Scenarios), len(a.Fresh), len(a.Repeated), len(a.Fabric))
	}
	names := map[string]bool{}
	for _, sc := range a.Scenarios {
		if names[sc.Name()] {
			t.Fatalf("duplicate scenario name %q", sc.Name())
		}
		names[sc.Name()] = true
	}
	c := sweepWhatIfQuestion(6, 2, base)
	if strings.Join(a.Repeated, "|") != strings.Join(c.Repeated, "|") {
		t.Error("repeated scenarios differ across seeds")
	}
	for n := range a.Fabric {
		if _, ok := c.Fabric[n]; ok {
			t.Errorf("fabric scenario %q repeats across seeds", n)
		}
	}
}

func TestHeldOutSeeds(t *testing.T) {
	seeds := map[uint64]string{profileSeed: "profile"}
	for _, s := range []struct {
		name string
		seed uint64
	}{
		{"panel 0", panelSeed(0)}, {"panel 1", panelSeed(1)},
		{"truth 0", heldOutSeed("truth", 0)}, {"truth 1", heldOutSeed("truth", 1)},
		{"replay truth 0", heldOutSeed("replay-truth", 0)},
	} {
		if other, dup := seeds[s.seed]; dup {
			t.Errorf("%s seed collides with %s", s.name, other)
		}
		seeds[s.seed] = s.name
	}
}

func TestCheckFrontier(t *testing.T) {
	want := []frontierPoint{{"2x1x1/mb2", 10}, {"2x2x1/mb2", 7}}
	if err := checkFrontier(append([]frontierPoint{}, want...), want); err != nil {
		t.Errorf("equal frontiers rejected: %v", err)
	}
	if err := checkFrontier([]frontierPoint{{"2x1x1/mb2", 10}, {"2x2x1/mb2", 8}}, want); err == nil {
		t.Error("changed iteration accepted")
	}
	if err := checkFrontier(want[:1], want); err == nil {
		t.Error("shorter frontier accepted")
	}
}

func TestCheckPlanAndInversion(t *testing.T) {
	best := planPoint{Point: "2x8x1/mb4/gpipe~bw*1,0.95", IterationMs: 293.74}
	resp := &planResponse{
		Frontier:  []planPoint{best, {Point: "2x1x1/mb4/gpipe", IterationMs: 900}},
		Dominated: []planPoint{{Point: "2x8x1/mb4/gpipe", IterationMs: 293.88}},
		Best:      &best,
	}
	resp.Stats.SpaceSize = serveSpaceSize
	if err := checkPlan(resp); err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if !inverted(resp) {
		t.Error("degraded best faster than its full-bandwidth twin not flagged")
	}
	resp.Dominated[0].IterationMs = 290
	if inverted(resp) {
		t.Error("degraded best slower than its twin flagged")
	}
	resp.Stats.SpaceSize = 12
	if checkPlan(resp) == nil {
		t.Error("wrong space size accepted")
	}
	resp.Stats.SpaceSize = serveSpaceSize
	resp.Best = &planPoint{Point: "2x4x1/mb4", IterationMs: 1}
	if checkPlan(resp) == nil {
		t.Error("best point off the frontier accepted")
	}
}

func TestCheckSweep(t *testing.T) {
	q := sweepWhatIfQuestion(1, 1, baseConfig())
	res := &lumos.SweepResult{}
	for _, n := range append(append([]string{}, q.Fresh...), q.Repeated...) {
		res.Results = append(res.Results, lumos.ScenarioResult{Name: n, Iteration: 1000})
	}
	want := map[string]int64{}
	for _, r := range res.Results {
		want[r.Name] = int64(r.Iteration)
	}
	if err := checkSweep(res, q, want); err != nil {
		t.Fatalf("valid campaign rejected: %v", err)
	}
	want[q.Repeated[0]]++
	if checkSweep(res, q, want) == nil {
		t.Error("memo-served row that differs from its first computation accepted")
	}
	res.Results[0].Err = "infeasible"
	if checkSweep(res, q, nil) == nil {
		t.Error("infeasible row accepted")
	}
	res.Results = res.Results[1:]
	if checkSweep(res, q, nil) == nil {
		t.Error("missing row accepted")
	}
}

func TestPredictionForParsesPointKeys(t *testing.T) {
	p, err := predictionFor(planPoint{Point: "2x8x1/mb4/gpipe~bw*1,0.95", IterationMs: 293.5}, baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	m := p.cfg.Map
	if m.TP != 2 || m.PP != 8 || m.DP != 1 || p.cfg.Microbatches != 4 || p.cfg.Schedule != lumos.ScheduleGPipe {
		t.Errorf("parsed %+v mb%d schedule %v", m, p.cfg.Microbatches, p.cfg.Schedule)
	}
	if p.fabric == nil || p.iter != 293.5e6 {
		t.Errorf("degraded point parsed with fabric %v, iteration %g", p.fabric, p.iter)
	}
	if p, err := predictionFor(planPoint{Point: "2x2x2/mb8"}, baseConfig()); err != nil || p.fabric != nil {
		t.Errorf("undegraded point: %v, fabric %v", err, p.fabric)
	}
	if _, err := predictionFor(planPoint{Point: "garbage"}, baseConfig()); err == nil {
		t.Error("malformed key accepted")
	}
}

func TestSpanSelfNestsAcrossTracks(t *testing.T) {
	ev := func(cat, name string, tid int, ts, dur float64) lumos.TraceEvent {
		return lumos.TraceEvent{Cat: cat, Name: name, Ph: "X", Tid: tid, Ts: ts, Dur: dur}
	}
	events := []lumos.TraceEvent{
		ev("scenario", "synthesize", 3, 25, 30),
		ev("scenario", "b", 4, 30, 10),
		ev("scenario", "a", 3, 20, 40),
		ev("pipeline", "sweep", 2, 20, 60),
		ev("pipeline", "plan", 1, 10, 80),
		ev(benchCat, "op", 0, 0, 100),
	}
	self := spanSelf(events)
	// Scenario b runs concurrently with a on another track: a's self time
	// excludes only its own synthesize child.
	for i, want := range []float64{30, 10, 10, 20, 20, 20} {
		if math.Abs(self[i]-want) > 1e-9 {
			t.Errorf("%s self = %g, want %g", events[i].Name, self[i], want)
		}
	}
	if got := unionMicros(events, false); got != 80 {
		t.Errorf("program span coverage = %g µs, want 80", got)
	}
}

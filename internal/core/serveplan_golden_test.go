package core

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lumos/internal/memcost"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/planner"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// servePlanSpace is a serve-plan-shaped question, as lumosd builds it: PP
// and DP over {1,2,4,8}, 128 microbatch counts, all four schedule
// families, and the undegraded network plus one fixed network bandwidth
// factor in each fifteenth of [0.5, 1) — 131,072 points, a quarter of them
// OOM on an 80 GiB device.
func servePlanSpace() planner.Space {
	mbs := make([]int, 128)
	for i := range mbs {
		mbs[i] = 4 + i
	}
	degrade := [][]float64{NetworkDegradeFactors(1)}
	for i := 0; i < 15; i++ {
		degrade = append(degrade, NetworkDegradeFactors(0.5+(float64(i)+0.5)/30))
	}
	return planner.Space{
		PP:         []int{1, 2, 4, 8},
		DP:         []int{1, 2, 4, 8},
		Microbatch: mbs,
		Schedules:  []string{"1f1b", "gpipe", "interleaved2", "zb-h1"},
		Degrade:    degrade,
	}
}

// goldenPoint is one simulated plan point as the golden file records it.
type goldenPoint struct {
	Key       string           `json:"key"`
	Iteration trace.Dur        `json:"iteration"`
	Bound     trace.Dur        `json:"bound"`
	Mem       memcost.Estimate `json:"mem"`
}

// goldenRejection is one retained rejection with its full reason.
type goldenRejection struct {
	Key         string `json:"key"`
	Reason      string `json:"reason"`
	OOM         bool   `json:"oom,omitempty"`
	BadSchedule bool   `json:"bad_schedule,omitempty"`
}

// goldenPlan is the recorded answer of one plan.
type goldenPlan struct {
	Stats      planner.Stats     `json:"stats"`
	Frontier   []goldenPoint     `json:"frontier"`
	Dominated  []goldenPoint     `json:"dominated"`
	Infeasible []goldenRejection `json:"infeasible"`
}

func goldenOf(res *planner.Result) goldenPlan {
	points := func(es []planner.Evaluated) []goldenPoint {
		out := make([]goldenPoint, len(es))
		for i, e := range es {
			out[i] = goldenPoint{Key: e.Point.Key(), Iteration: e.Iteration, Bound: e.Bound, Mem: e.Mem}
		}
		return out
	}
	g := goldenPlan{Stats: res.Stats, Frontier: points(res.Frontier), Dominated: points(res.Dominated)}
	for _, c := range res.Infeasible {
		g.Infeasible = append(g.Infeasible, goldenRejection{
			Key: c.Point.Key(), Reason: c.Infeasible, OOM: c.OOM, BadSchedule: c.BadSchedule,
		})
	}
	return g
}

// TestServePlanGolden pins a serve-plan-shaped branch-and-bound plan on the
// fig7 profile to the answer recorded in testdata/serveplan_golden.json:
// the search stats, every frontier and dominated point (key, iteration,
// bound, memory estimate) and the retained rejections with their full
// reasons. Search shortcuts (classifying OOM microbatch tails in bulk,
// skipping replays a retime leaves unchanged, the replay engine's task
// order) must leave all of it bit-identical.
func TestServePlanGolden(t *testing.T) {
	ctx := context.Background()
	m, err := topology.NewMapping(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := parallel.DefaultConfig(model.GPT3_15B(), m)
	base.Microbatches = 8
	tk := New(WithConcurrency(2))
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tk.PlanState(ctx, st, servePlanSpace(),
		planner.WithStrategy(planner.BranchAndBound{}), planner.WithMemModel(memcost.Model{}))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenOf(res)

	raw, err := os.ReadFile(filepath.Join("testdata", "serveplan_golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want goldenPlan
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Errorf("stats:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	comparePoints := func(what string, got, want []goldenPoint) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("%s: %d points, want %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]:\n got %+v\nwant %+v", what, i, got[i], want[i])
			}
		}
	}
	comparePoints("frontier", got.Frontier, want.Frontier)
	comparePoints("dominated", got.Dominated, want.Dominated)
	if len(got.Infeasible) != len(want.Infeasible) {
		t.Fatalf("%d retained rejections, want %d", len(got.Infeasible), len(want.Infeasible))
	}
	for i := range want.Infeasible {
		if got.Infeasible[i] != want.Infeasible[i] {
			t.Errorf("rejection %d:\n got %+v\nwant %+v", i, got.Infeasible[i], want.Infeasible[i])
		}
	}
}

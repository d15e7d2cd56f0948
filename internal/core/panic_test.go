package core

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"lumos/internal/execgraph"
	"lumos/internal/manip"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/planner"
	"lumos/internal/trace"
)

// panicScenario fingerprints normally and panics in Run.
type panicScenario struct{}

func (panicScenario) Name() string { return "panics-in-run" }

func (panicScenario) Fingerprint(*BaseState) (string, bool) { return "panic|run", true }

func (panicScenario) Run(context.Context, *BaseState) (ScenarioResult, error) {
	panic("scenario bug")
}

// TestScenarioPanicIsolated sweeps a healthy scenario beside one whose Run
// panics and a DeployScenario whose transform panics (inside
// Fingerprint). The sweep must come back with three rows instead of
// taking the process down: the healthy row as it reads alone, two
// infeasible "internal: scenario panicked" rows whose spans carry the
// stack, lumos_scenario_panics_total at 2, and neither cache level holding
// a panicked row.
func TestScenarioPanicIsolated(t *testing.T) {
	ctx := context.Background()
	healthy := ScaleDPScenario(2)
	cfg := testConfig(t)

	alone, err := New(WithSeed(42)).Evaluate(ctx, cfg, healthy)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer()
	traced := obs.ContextWithTracer(ctx, tr)
	tk := New(WithSeed(42), WithDiskCache(t.TempDir()))
	st, err := tk.Prepare(traced, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	badTransform := DeployScenario("panics-in-fingerprint", func(parallel.Config) parallel.Config {
		panic("transform bug")
	})
	sweep, err := tk.EvaluateState(traced, st, healthy, panicScenario{}, badTransform)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != 3 {
		t.Fatalf("%d rows, want 3", len(sweep.Results))
	}
	byName := map[string]ScenarioResult{}
	for _, r := range sweep.Results {
		byName[r.Name] = r
	}
	if got := byName[healthy.Name()]; !reflect.DeepEqual(got, alone.Results[0]) {
		t.Fatalf("healthy row changed beside panicking scenarios:\n got %+v\nwant %+v", got, alone.Results[0])
	}
	for _, name := range []string{"panics-in-run", "panics-in-fingerprint"} {
		r := byName[name]
		if r.Feasible() || !strings.HasPrefix(r.Err, "internal: scenario panicked: ") {
			t.Fatalf("%s: want an infeasible internal panic row, got %+v", name, r)
		}
	}

	reg := obs.NewRegistry()
	tk.RegisterMetrics(reg)
	if v, ok := reg.Snapshot().Value("lumos_scenario_panics_total", ""); !ok || v != 2 {
		t.Fatalf("lumos_scenario_panics_total = %v (present %v), want 2", v, ok)
	}

	if _, ok := st.memo.Load("panic|run"); ok {
		t.Fatal("the memo stored a panicked row")
	}
	if entries := st.CacheStats().MemoEntries; entries != 1 {
		t.Fatalf("memo holds %d entries, want only the healthy row", entries)
	}
	if ds, ok := tk.DiskCacheStats(); !ok || ds.Puts != 2 {
		// The calibration snapshot and the healthy row.
		t.Fatalf("disk cache puts = %d (configured %v), want 2", ds.Puts, ok)
	}

	stacks := 0
	for _, ev := range tr.Events() {
		if s, ok := ev.Args["stack"].(string); ok && strings.Contains(s, "panic_test.go") {
			stacks++
		}
	}
	if stacks != 2 {
		t.Fatalf("%d scenario spans carry the panic stack, want 2", stacks)
	}
}

// TestSharedBuildPanicLeavesError panics once inside each sync.Once that
// builds state sibling scenarios share — a structural synthesis, the
// lowering of its program, and the base program — and evaluates two
// siblings. The first row is the recovered scenario panic; the second
// must report the same panic as an error instead of reading the
// half-built state (a nil dereference, or a feasible number replayed
// against a zero own makespan).
func TestSharedBuildPanicLeavesError(t *testing.T) {
	ctx := context.Background()
	plan := func(factor float64) Scenario {
		return &planScenario{cand: planner.Candidate{Point: planner.Point{
			TP: 2, PP: 2, DP: 1, Microbatches: 8, Degrade: NetworkDegradeFactors(factor)}}}
	}
	for _, tc := range []struct {
		name     string
		arm      func(t *testing.T, st *BaseState)
		siblings []Scenario
		stage    string
	}{
		{"synthesis", func(_ *testing.T, st *BaseState) {
			st.Library = nil
		}, []Scenario{plan(0.5), plan(0.7)}, "synthesis"},
		{"compile", func(t *testing.T, st *BaseState) {
			// Synthesize the siblings' shared structural entry up front and
			// give its graph an empty collective group, which lowering the
			// entry's program and comm retime plan cannot index.
			target := planner.Point{TP: 2, PP: 2, DP: 1, Microbatches: 8}.Config(st.Config)
			e, err := st.synthesizeStructural(manip.Request{Base: st.Config, Target: target}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			e.out.Graph.Groups[execgraph.GroupKey{}] = nil
		}, []Scenario{plan(0.5), plan(0.7)}, "compile"},
		{"base compile", func(_ *testing.T, st *BaseState) {
			st.Graph = nil
		}, []Scenario{ClassScaleScenario(trace.KCGEMM, 0.5), ClassScaleScenario(trace.KCGEMM, 0.7)}, "base compile"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tk := New(WithSeed(42), WithConcurrency(1))
			st, err := tk.Prepare(ctx, testConfig(t), 42)
			if err != nil {
				t.Fatal(err)
			}
			tc.arm(t, st)
			sweep, err := tk.EvaluateState(ctx, st, tc.siblings...)
			if err != nil {
				t.Fatal(err)
			}
			if len(sweep.Results) != 2 {
				t.Fatalf("%d rows, want 2", len(sweep.Results))
			}
			var panicked, reported []string
			for _, r := range sweep.Results {
				if msg, ok := strings.CutPrefix(r.Err, "internal: scenario panicked: "); ok {
					panicked = append(panicked, msg)
				} else if msg, ok := strings.CutPrefix(r.Err, "internal: "+tc.stage+" panicked: "); ok {
					reported = append(reported, msg)
				} else {
					t.Fatalf("row %s: want an internal panic error, got %+v", r.Name, r)
				}
			}
			if len(panicked) != 1 || len(reported) != 1 || panicked[0] != reported[0] {
				t.Fatalf("want one scenario panic and one %s error with the same message, got %q and %q",
					tc.stage, panicked, reported)
			}
			reg := obs.NewRegistry()
			tk.RegisterMetrics(reg)
			if v, _ := reg.Snapshot().Value("lumos_scenario_panics_total", ""); v != 1 {
				t.Fatalf("lumos_scenario_panics_total = %v, want 1", v)
			}
		})
	}
}

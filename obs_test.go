package lumos

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestMetricsSnapshotDeterminism is the observability determinism gate:
// two identical traced plan campaigns over the same space must produce
// byte-identical Prometheus snapshots — every registered series is an
// event count or occupancy gauge and the exposition carries no
// timestamps — and the same multiset of trace-event labels. Only ts/dur
// may differ between runs; if a wall-clock-dependent value ever leaks
// into a snapshot, this test catches it before a dashboard does.
func TestMetricsSnapshotDeterminism(t *testing.T) {
	run := func() (string, map[string]int) {
		ctx := context.Background()
		tracer := NewTracer()
		tk := New(WithSeed(42), WithConcurrency(4), WithTracer(tracer))
		base := sweepBase(t)
		st, err := tk.Prepare(ctx, base, 42)
		if err != nil {
			t.Fatal(err)
		}
		// The degrade axis forces the compile/retime/replay path, so the
		// engine counters and scenario spans are exercised, not just the
		// campaign-fabric synthesis path.
		space := Space{
			PP: []int{1, 2}, DP: []int{1, 2}, Microbatch: []int{4, 8},
			Degrade: [][]float64{nil, NetworkDegradeFactors(0.5)},
		}
		if _, err := tk.PlanState(ctx, st, space,
			WithPlanStrategy(BranchAndBoundStrategy())); err != nil {
			t.Fatal(err)
		}

		reg := NewRegistry()
		tk.RegisterMetrics(reg)
		st.RegisterMetrics(reg)
		var buf bytes.Buffer
		if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}

		// Sweep workers append concurrently, so event order is not stable
		// across runs — the cat/name/phase multiset is.
		shape := map[string]int{}
		for _, e := range tracer.Events() {
			shape[e.Cat+"/"+e.Name+"/"+e.Ph]++
		}
		return buf.String(), shape
	}

	expo1, shape1 := run()
	expo2, shape2 := run()
	if expo1 == "" {
		t.Fatal("first run produced an empty exposition")
	}
	if expo1 != expo2 {
		t.Errorf("metric snapshots differ between identical runs:\n--- run 1 ---\n%s--- run 2 ---\n%s", expo1, expo2)
	}
	if !reflect.DeepEqual(shape1, shape2) {
		t.Errorf("trace shapes differ between identical runs:\nrun 1: %v\nrun 2: %v", shape1, shape2)
	}
}

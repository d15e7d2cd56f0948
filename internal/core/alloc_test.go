package core

import (
	"context"
	"runtime"
	"testing"

	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// whatIfAllocBudget bounds the bytes one kernel what-if allocates on a warm
// toolkit. Its duration columns and replay scratch come from the toolkit's
// pools, so what remains is the result row and the sweep's bookkeeping;
// fresh columns for the fig7 base alone would take 1.6 MB.
const whatIfAllocBudget = 256 << 10

// TestWhatIfAllocBudget holds kernel what-ifs on the fig7 base (GPT-3 15B,
// TP2×PP2×DP2, 8 microbatches) to a byte budget. With one worker, one
// pooled timings buffer and one scratch serve every what-if, so a path
// that allocates per-what-if duration columns fails `make alloc-guard`,
// not a profile.
func TestWhatIfAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random, so pool reuse is not measurable; make alloc-guard runs this without -race")
	}
	// One P, so each worker goroutine's Get finds the per-P pool slot the
	// previous what-if's Put filled, wherever the scheduler runs it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	m, err := topology.NewMapping(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = 8
	tk := New(WithConcurrency(1))
	st, err := tk.Prepare(ctx, cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: compiles the base program and fills both pools.
	if _, err := tk.EvaluateState(ctx, st, ClassScaleScenario(trace.KCGEMM, 0.5)); err != nil {
		t.Fatal(err)
	}

	const n = 15
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		scenarios[i] = ClassScaleScenario(trace.KCGEMM, 0.6+0.02*float64(i))
	}
	hits := st.CacheStats().MemoHits
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweep, err := tk.EvaluateState(ctx, st, scenarios...)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sweep.Results {
		if !r.Feasible() {
			t.Fatalf("%s: %s", r.Name, r.Err)
		}
	}
	if h := st.CacheStats().MemoHits; h != hits {
		t.Fatalf("%d what-ifs were served by the memo; every one must replay", h-hits)
	}
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d what-ifs on a %d-task base allocated %d bytes each (budget %d)", n, len(st.Graph.Tasks), per, whatIfAllocBudget)
	if per > whatIfAllocBudget {
		t.Fatalf("a what-if allocated %d bytes, over the %d-byte budget", per, whatIfAllocBudget)
	}
}

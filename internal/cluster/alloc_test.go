package cluster

import (
	"runtime"
	"testing"
)

// synthesizeAllocBudget bounds the heap bytes one warm Synthesize of the
// fig7 target (GPT-3 15B, TP2×PP2×DP2, 8 microbatches, 1F1B) may allocate:
// about 1.2× the 39.4 MB it takes with one exactly sized program build per
// pipeline stage and queue entries that point at their instructions.
// Per-rank program rebuilds, per-slot op generation or copied ops creeping
// back (88 MB before) fail `make alloc-guard`, not a profile.
const synthesizeAllocBudget = 47_000_000

// TestSynthesizeAllocBudget enforces the synthesis allocation budget.
func TestSynthesizeAllocBudget(t *testing.T) {
	cfg := smallConfig(t, 2, 2, 2, 8)
	simCfg := DefaultSimConfig(cfg.Map.WorldSize(), 42)
	if _, err := Synthesize(cfg, simCfg); err != nil { // warm: lazy package state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Synthesize(cfg, simCfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one fig7 synthesis allocated %d bytes (budget %d)", got, synthesizeAllocBudget)
	if got > synthesizeAllocBudget {
		t.Fatalf("one fig7 synthesis allocated %d bytes, over the %d-byte budget", got, synthesizeAllocBudget)
	}
}

package cluster

import (
	"runtime"
	"testing"

	"lumos/internal/collective"
	"lumos/internal/parallel"
)

// synthesizeAllocBudget bounds the heap bytes one warm Synthesize of the
// fig7 target (GPT-3 15B, TP2×PP2×DP2, 8 microbatches, 1F1B) may allocate
// under the jittered ground-truth simulator, which always simulates every
// rank: about 1.2× the 39.4 MB it takes with one exactly sized program
// build per pipeline stage and queue entries that point at their
// instructions. Per-rank program rebuilds, per-slot op generation or copied
// ops creeping back (88 MB before) fail `make alloc-guard`, not a profile.
const synthesizeAllocBudget = 47_000_000

// predictAllocBudget bounds one warm deterministic synthesis of
// TP2×PP2×DP4 (8 microbatches, 1F1B) the way every deploy prediction and
// plan point runs it: split into price classes, then one representative
// replica simulated. It is about 1.2× the 20.2 MB that takes; simulating
// all four replicas takes 78.6 MB, so predictions that fall back to full
// synthesis fail `make alloc-guard`.
const predictAllocBudget = 24_200_000

// TestSynthesizeAllocBudget enforces the synthesis allocation budgets.
func TestSynthesizeAllocBudget(t *testing.T) {
	t.Run("fig7-jittered", func(t *testing.T) {
		cfg := smallConfig(t, 2, 2, 2, 8)
		simCfg := DefaultSimConfig(cfg.Map.WorldSize(), 42)
		checkAllocBudget(t, "one fig7 synthesis", synthesizeAllocBudget, func() {
			if _, err := Synthesize(cfg, simCfg, nil); err != nil {
				t.Fatal(err)
			}
		})
	})
	t.Run("dp4-deterministic", func(t *testing.T) {
		cfg := smallConfig(t, 2, 2, 4, 8)
		simCfg := deterministicConfig(cfg.Map.WorldSize())
		pricer := collective.NewPricer(simCfg.Fabric)
		checkAllocBudget(t, "one deterministic TP2×PP2×DP4 synthesis", predictAllocBudget, func() {
			comms, err := parallel.ReplicaComms(cfg)
			if err != nil {
				t.Fatal(err)
			}
			classes := parallel.OneClass(cfg.Map.DP).Split(cfg.Map, comms, pricer)
			if !classes.Merged() {
				t.Fatalf("price classes %v: the four replicas should share one class", classes)
			}
			if _, err := Synthesize(cfg, simCfg, classes); err != nil {
				t.Fatal(err)
			}
		})
	})
}

// checkAllocBudget runs f once to warm lazy package state, then fails if a
// second run allocates more than budget heap bytes.
func checkAllocBudget(t *testing.T, what string, budget uint64, f func()) {
	t.Helper()
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%s allocated %d bytes (budget %d)", what, got, budget)
	if got > budget {
		t.Fatalf("%s allocated %d bytes, over the %d-byte budget", what, got, budget)
	}
}

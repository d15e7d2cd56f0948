package cluster

import (
	"testing"

	"lumos/internal/parallel"
)

// deterministicConfig is the prediction generator's simulator: no jitter,
// skew or contention, priced by the fabric-matched oracle.
func deterministicConfig(world int) SimConfig {
	c := DefaultSimConfig(world, 0)
	c.ComputeJitterSigma, c.CommJitterSigma, c.CPUJitterSigma, c.RankSkewSigma = 0, 0, 0, 0
	c.OverlapComputeSlowdown, c.OverlapCommSlowdown = 1, 1
	return c
}

// TestSynthesizeRejectsMergedClassesWithJitter: ground truth stays full.
// A stochastic simulator makes replicas differ, so Synthesize refuses a
// merged partition under it, while one class per replica is the full
// synthesis.
func TestSynthesizeRejectsMergedClassesWithJitter(t *testing.T) {
	cfg := smallConfig(t, 2, 2, 2, 4)
	simCfg := DefaultSimConfig(cfg.Map.WorldSize(), 1)
	if _, err := Synthesize(cfg, simCfg, parallel.OneClass(cfg.Map.DP)); err == nil {
		t.Fatal("a merged price class under a jittered simulator must be rejected")
	}
	if _, err := Synthesize(cfg, simCfg, parallel.Classes{0, 1}); err != nil {
		t.Fatalf("one class per replica is the full synthesis: %v", err)
	}
	if _, err := Synthesize(cfg, deterministicConfig(cfg.Map.WorldSize()), parallel.OneClass(cfg.Map.DP)); err != nil {
		t.Fatalf("a merged price class under the deterministic simulator: %v", err)
	}
}

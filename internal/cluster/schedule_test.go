package cluster

import (
	"testing"

	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/topology"
)

// scheduleConfig builds a deployment with the given schedule knobs.
func scheduleConfig(t *testing.T, pol parallel.SchedulePolicy, v, tp, pp, dp, mb int) parallel.Config {
	t.Helper()
	m := topology.Mapping{TP: tp, PP: pp, DP: dp}
	cfg := parallel.DefaultConfig(model.GPT3_15B(), m)
	cfg.Microbatches = mb
	cfg.Schedule = pol
	cfg.VirtualStages = v
	if err := cfg.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return cfg
}

// TestScheduleProgramsSimulate runs every schedule through the ground-truth
// simulator: the emitted programs must complete without deadlock across
// parallelism shapes, including the interleaved wraparound P2P channels and
// the zero-bubble split-backward structure.
func TestScheduleProgramsSimulate(t *testing.T) {
	cases := []struct {
		name           string
		pol            parallel.SchedulePolicy
		v              int
		tp, pp, dp, mb int
	}{
		{"gpipe", parallel.GPipe, 0, 1, 2, 1, 4},
		{"zb-h1", parallel.ZBH1, 0, 1, 2, 1, 4},
		{"zb-h1-3d", parallel.ZBH1, 0, 2, 2, 2, 4},
		{"interleaved2", parallel.Interleaved, 2, 1, 2, 1, 4},
		{"interleaved2-3d", parallel.Interleaved, 2, 2, 2, 2, 4},
		{"interleaved3", parallel.Interleaved, 3, 1, 4, 1, 8},
		{"interleaved2-pp4", parallel.Interleaved, 2, 1, 4, 2, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := scheduleConfig(t, tc.pol, tc.v, tc.tp, tc.pp, tc.dp, tc.mb)
			out, err := Run(cfg, DefaultSimConfig(cfg.Map.WorldSize(), 42))
			if err != nil {
				t.Fatal(err)
			}
			if out.Duration() <= 0 {
				t.Fatal("non-positive iteration time")
			}
			// Graph synthesis must agree with the trace path's timing
			// (identical stochastic draw order) for the new schedules too.
			g, err := Synthesize(cfg, DefaultSimConfig(cfg.Map.WorldSize(), 42), nil)
			if err != nil {
				t.Fatal(err)
			}
			if g.Duration() != out.Duration() {
				t.Fatalf("synthesized duration %d != trace duration %d", g.Duration(), out.Duration())
			}
		})
	}
}

// TestScheduleBubbleOrdering checks the headline schedule economics on the
// ground-truth simulator: at identical deployment shape, interleaved 1F1B
// and ZB-H1 both finish the iteration faster than flat 1F1B (smaller
// fill/drain bubble), which in turn beats GPipe.
func TestScheduleBubbleOrdering(t *testing.T) {
	run := func(pol parallel.SchedulePolicy, v int) int64 {
		cfg := scheduleConfig(t, pol, v, 1, 2, 1, 4)
		out, err := Run(cfg, DefaultSimConfig(cfg.Map.WorldSize(), 42))
		if err != nil {
			t.Fatal(err)
		}
		return int64(out.Duration())
	}
	fb := run(parallel.OneFOneB, 0)
	il := run(parallel.Interleaved, 2)
	zb := run(parallel.ZBH1, 0)
	if il >= fb {
		t.Fatalf("interleaved2 iteration %d not < 1F1B %d", il, fb)
	}
	if zb >= fb {
		t.Fatalf("ZB-H1 iteration %d not < 1F1B %d", zb, fb)
	}
}

// TestScheduleDeterministicRerun pins simulator determinism for the new
// schedules: same seed, same trace.
func TestScheduleDeterministicRerun(t *testing.T) {
	for _, tc := range []struct {
		pol parallel.SchedulePolicy
		v   int
	}{{parallel.Interleaved, 2}, {parallel.ZBH1, 0}} {
		cfg := scheduleConfig(t, tc.pol, tc.v, 1, 2, 1, 4)
		a, err := Run(cfg, DefaultSimConfig(cfg.Map.WorldSize(), 7))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(cfg, DefaultSimConfig(cfg.Map.WorldSize(), 7))
		if err != nil {
			t.Fatal(err)
		}
		if a.Duration() != b.Duration() || a.Events() != b.Events() {
			t.Fatalf("%v: rerun diverged: %v/%d vs %v/%d", tc.pol,
				a.Duration(), a.Events(), b.Duration(), b.Events())
		}
	}
}

// Schedules: the pipeline-schedule comparison on the paper's Figure 7/8
// setups. For each base (the GPT-3 15B fig7 deployment and its fig8 V3
// architecture variant), one profile feeds schedule what-ifs — flat 1F1B,
// GPipe, interleaved 1F1B (v=2) and zero-bubble ZB-H1 — and the example
// prints each schedule's predicted iteration time, pipeline-bubble time
// (GPU idle off the compute path, averaged across ranks) and analytic peak
// memory.
//
// The example doubles as the schedule subsystem's acceptance check (the
// `make schedule-smoke` CI gate): interleaved 1F1B must strictly beat flat
// 1F1B's bubble time, and ZB-H1's analytic peak memory must match 1F1B's
// within tolerance — it exits non-zero otherwise.
//
//	go run ./examples/schedules
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"

	"lumos"
	"lumos/internal/analysis"
)

// bubbleTime returns the average per-rank GPU idle time of a predicted
// schedule: the iteration minus the rank's compute time, exposed or
// overlapped with communication. Fill/drain bubbles dominate it, so
// schedules are compared on it.
func bubbleTime(r lumos.ScenarioResult) float64 {
	return float64(r.Iteration - (r.Breakdown.ExposedCompute + r.Breakdown.Overlapped))
}

func main() {
	ctx := context.Background()
	tk := lumos.New(lumos.WithSeed(42))
	schedules := []string{"1f1b", "gpipe", "interleaved2", "zb-h1"}
	mem := lumos.MemoryModel{ZeRO: lumos.ZeROOptimizer}

	setups := []struct {
		name string
		arch lumos.Arch
	}{
		{"fig7 (GPT-3 15B)", lumos.GPT3_15B()},
		{"fig8 (GPT-3 V3)", lumos.GPT3_V3()},
	}

	ok := true
	for _, setup := range setups {
		base, err := lumos.DeploymentConfig(setup.arch, 2, 2, 2)
		if err != nil {
			log.Fatal(err)
		}
		base.Microbatches = 8

		fmt.Printf("=== %s: base %dx%dx%d, mb=%d, one profile → %d schedule predictions ===\n",
			setup.name, base.Map.TP, base.Map.PP, base.Map.DP, base.Microbatches, len(schedules))
		traces, err := tk.Profile(ctx, base, 42)
		if err != nil {
			log.Fatal(err)
		}
		st, err := tk.PrepareTraces(ctx, base, traces)
		if err != nil {
			log.Fatal(err)
		}
		sweep, err := tk.EvaluateState(ctx, st, lumos.ScheduleSweep(schedules)...)
		if err != nil {
			log.Fatal(err)
		}
		preds := map[string]lumos.ScenarioResult{}
		for _, r := range sweep.Results {
			preds[r.Name] = r
		}

		iters := map[string]float64{}
		bubbles := map[string]float64{}
		mems := map[string]float64{}
		fmt.Printf("%-14s %12s %12s %8s %10s\n", "schedule", "pred/iter", "bubble", "bubble%", "peak mem")
		for _, spec := range schedules {
			target, err := lumos.WithScheduleSpec(base, spec)
			if err != nil {
				log.Fatal(err)
			}
			pred, ok := preds["schedule="+spec]
			if !ok || !pred.Feasible() {
				log.Fatalf("%s: no prediction: %+v", spec, pred)
			}
			est, err := mem.Estimate(target)
			if err != nil {
				log.Fatalf("%s: %v", spec, err)
			}
			iter := float64(pred.Iteration)
			bubble := bubbleTime(pred)
			iters[spec] = iter
			bubbles[spec] = bubble
			mems[spec] = float64(est.Total())
			fmt.Printf("%-14s %10.1fms %10.1fms %7.1f%% %8.1fGiB\n",
				spec, analysis.Millis(pred.Iteration), bubble/1e6, 100*bubble/iter, est.GiB())
		}

		// Acceptance: interleaving must strictly shrink the bubble, and
		// ZB-H1 must hold the 1F1B memory line.
		if bubbles["interleaved2"] >= bubbles["1f1b"] {
			fmt.Printf("FAIL %s: interleaved2 bubble %.1fms not < 1F1B %.1fms\n",
				setup.name, bubbles["interleaved2"]/1e6, bubbles["1f1b"]/1e6)
			ok = false
		}
		if diff := math.Abs(mems["zb-h1"] - mems["1f1b"]); diff > 0.01*mems["1f1b"] {
			fmt.Printf("FAIL %s: ZB-H1 peak memory departs 1F1B's by %.2fGiB\n",
				setup.name, diff/(1<<30))
			ok = false
		}
		fmt.Println()
	}

	if !ok {
		fmt.Println("FAIL: a schedule violated its bubble/memory contract")
		os.Exit(1)
	}
	fmt.Println("OK: interleaved beats the 1F1B bubble and ZB-H1 holds the 1F1B memory line")
}

// Scaleout: the Figure-7 workflow as a campaign — profile a small baseline
// deployment once, then predict iteration time at larger data- and
// pipeline-parallel scales with one concurrent sweep over shared
// calibration, without "renting" the larger cluster. Each ranked
// prediction is then validated against a fresh ground-truth simulation of
// the target scale.
//
//	go run ./examples/scaleout
package main

import (
	"context"
	"fmt"
	"log"

	"lumos"
	"lumos/internal/analysis"
	"lumos/internal/metrics"
)

func main() {
	ctx := context.Background()
	tk := lumos.New(
		lumos.WithFabric(lumos.H100Cluster(128)),
		lumos.WithConcurrency(4),
		lumos.WithSeed(42),
	)

	base, err := lumos.DeploymentConfig(lumos.GPT3_15B(), 2, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	base.Microbatches = 16

	fmt.Println("profiling baseline 2x2x4 (16 GPUs) and sweeping scale-out targets...")
	sweep, err := tk.Evaluate(ctx, base,
		lumos.BaselineScenario(),
		lumos.ScaleDPScenario(8),
		lumos.ScaleDPScenario(16),
		lumos.ScalePPScenario(4),
		lumos.ScalePPScenario(8),
		lumos.Scale3DScenario(4, 8),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline iteration: %.1f ms (profiled once; all predictions share its kernel library)\n\n",
		analysis.Millis(sweep.Base.Iteration))

	fmt.Printf("%4s  %-12s %6s %12s %9s %9s %12s %8s\n",
		"rank", "target", "gpus", "predicted", "speedup", "Δcost", "actual", "err")
	for i, r := range sweep.Results {
		// Validation: simulate the target for real (a new "deployment").
		actual, err := tk.Profile(ctx, r.Target, 9000+uint64(i))
		if err != nil {
			log.Fatal(err)
		}
		ai := lumos.IterationTime(actual)
		fmt.Printf("%4d  %-12s %6d %10.1fms %8.2fx %+8.1f%% %10.1fms %7.1f%%\n",
			i+1, r.Name, r.World, analysis.Millis(r.Iteration), r.Speedup,
			100*r.CostDelta, analysis.Millis(ai), metrics.RelErr(r.Iteration, ai))
	}
	if best, ok := sweep.Best(); ok {
		fmt.Printf("\nfastest: %s at %.1f ms/iter — found from the single 16-GPU profile;\n",
			best.Name, analysis.Millis(best.Iteration))
		fmt.Println("the \"actual\" column each required deploying the larger cluster.")
	}
}

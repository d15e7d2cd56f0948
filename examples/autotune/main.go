// Autotune: the deployment planner answering the paper's headline question
// — "which deployment should I run?" — on the Figure 7/8 setups. For each
// base (the GPT-3 15B Figure 7 deployment and its Figure 8 V3 architecture
// variant), one profile feeds an exact search over the pipeline × data ×
// microbatch space: the analytic memory model rules out configurations
// that would OOM, roofline + collective-pricer bounds lower-bound the
// rest, and branch-and-bound simulates only the points whose bound can
// still beat the best simulated time.
//
// The example doubles as the planner's acceptance check (the `make
// plan-smoke` CI gate): branch-and-bound must find the same best
// configuration as an exhaustive sweep of the same space while simulating
// strictly fewer points — it exits non-zero otherwise.
//
//	go run ./examples/autotune
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"lumos"
	"lumos/internal/analysis"
)

func main() {
	ctx := context.Background()
	tk := lumos.New(lumos.WithConcurrency(8), lumos.WithSeed(42))

	space := lumos.Space{
		PP:         []int{1, 2, 4},
		DP:         []int{1, 2, 4},
		Microbatch: []int{4, 8},
	}
	// Megatron-style distributed optimizer: optimizer states shard across
	// the data-parallel group, so DP is a memory lever as well as a
	// throughput one.
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

		fmt.Printf("=== %s: base %dx%dx%d, searching %d points ===\n",
			setup.name, base.Map.TP, base.Map.PP, base.Map.DP, space.Size(base))
		st, err := tk.Prepare(ctx, base, 42)
		if err != nil {
			log.Fatal(err)
		}

		// The exhaustive pass is the yardstick; branch-and-bound shares its
		// campaign state, so the points both simulate are served by the
		// scenario cache.
		exhaustive, err := tk.PlanState(ctx, st, space,
			lumos.WithPlanStrategy(lumos.ExhaustiveStrategy()), lumos.WithMemoryModel(mem))
		if err != nil {
			log.Fatal(err)
		}
		exBest, found := exhaustive.Best()
		if !found {
			log.Fatalf("%s: exhaustive search found no feasible point", setup.name)
		}

		fmt.Printf("exhaustive: %d/%d simulated (%d OOM-pruned), best %s at %.1fms\n",
			exhaustive.Stats.Simulated, exhaustive.Stats.SpaceSize,
			exhaustive.Stats.MemRejected, exBest.Point.Key(), analysis.Millis(exBest.Iteration))
		fmt.Println("frontier (iteration × GPUs × peak memory):")
		for _, e := range exhaustive.Frontier {
			fmt.Printf("  %-14s %3d GPUs  %8.1fms  %5.1fGiB\n",
				e.Point.Key(), e.Point.World(), analysis.Millis(e.Iteration), e.Mem.GiB())
		}

		res, err := tk.PlanState(ctx, st, space,
			lumos.WithPlanStrategy(lumos.BranchAndBoundStrategy()), lumos.WithMemoryModel(mem))
		if err != nil {
			log.Fatal(err)
		}
		best, found := res.Best()
		verdict := "MATCH"
		if !found || best.Point.Key() != exBest.Point.Key() || best.Iteration != exBest.Iteration {
			verdict = "MISMATCH"
			ok = false
		}
		if res.Stats.Simulated >= exhaustive.Stats.Simulated {
			verdict += " (but no simulation savings)"
			ok = false
		}
		fmt.Printf("bnb: %d/%d simulated (%d subtree points pruned without simulating), best %s — %s\n\n",
			res.Stats.Simulated, exhaustive.Stats.Simulated,
			res.Stats.BoundPruned+res.Stats.DominatedPruned, best.Point.Key(), verdict)
	}

	if !ok {
		fmt.Println("FAIL: branch-and-bound disagreed with the exhaustive sweep")
		os.Exit(1)
	}
	fmt.Println("OK: branch-and-bound found the exhaustive best with fewer simulations")
}

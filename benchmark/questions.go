package main

import (
	"fmt"
	"hash/fnv"

	"lumos"
)

// rng is SplitMix64: a tiny generator whose output depends only on its
// seed, so a workload seed names the same questions on every host and Go
// version.
type rng struct{ state uint64 }

// newRNG derives an independent stream for (seed, stream, k): the profile,
// each op's factors and the accuracy panel all draw from their own stream.
func newRNG(seed uint64, stream string, k int) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, stream, k)
	return &rng{state: h.Sum64()}
}

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1) with 53 random bits.
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// between returns a uniform value in [lo, hi).
func (r *rng) between(lo, hi float64) float64 { return lo + (hi-lo)*r.float() }

// baseConfig is the fig7 base deployment every workload profiles: GPT-3
// 15B, TP2×PP2×DP2, 8 microbatches, 1F1B, on the flat H100 fabric (the
// toolkit default).
func baseConfig() lumos.Config {
	cfg, err := lumos.DeploymentConfig(lumos.GPT3_15B(), 2, 2, 2)
	if err != nil {
		panic(err) // a fixed, valid preset
	}
	cfg.Microbatches = 8
	return cfg
}

// profileSeed is the substrate seed of the base profile every run
// generates. It is fixed rather than drawn from the workload seed: which
// points branch-and-bound simulates depends strongly on the profile (48 vs
// 85 per serve-plan op between two profile seeds), so a drawn profile
// spread op costs by a quarter across seeds. The workload seed draws every
// op's factors instead, so a held-out seed still asks new questions.
const profileSeed = 42

// heldOutSeed is the k-th substrate seed of a ground-truth or accuracy-panel
// stream, independent of the workload seed.
func heldOutSeed(stream string, k int) uint64 { return newRNG(0, "heldout/"+stream, k).next() }

// coldMemory is the 192 GiB ZeRO-1 memory model of the repository's plan
// benchmarks: every point of coldSpace fits in memory.
func coldMemory() lumos.MemoryModel {
	return lumos.MemoryModel{GPUMemBytes: 192 << 30, ZeRO: lumos.ZeROOptimizer}
}

// coldSpace is plan-cold's question: a small PP×DP×microbatch grid planned
// from scratch on the campaign fabric; 10 of its 12 points are feasible
// (PP 4 needs more than 2 microbatches). Microbatch counts {2, 4} keep an
// op short enough that a run holds over a hundred of them.
func coldSpace() lumos.Space {
	return lumos.Space{
		PP:         []int{1, 2, 4},
		DP:         []int{1, 2},
		Microbatch: []int{2, 4},
	}
}

// servePlanRequest is serve-plan's question k: branch-and-bound over PP,
// DP ∈ {1,2,4,8}, 128 microbatch counts, all four schedules, and the
// undegraded network plus 15 degrade factors drawn fresh for this op, so
// every degraded point is a memo miss without turning caches off.
type servePlanRequest struct {
	Profile   string    `json:"profile"`
	PPRange   []int     `json:"pp_range"`
	DPRange   []int     `json:"dp_range"`
	MBRange   []int     `json:"mb_range"`
	Schedules []string  `json:"schedules"`
	Degrade   []float64 `json:"degrade"`
	Strategy  string    `json:"strategy"`
	Trace     bool      `json:"trace,omitempty"`
}

// serveSpaceSize is the point count of every servePlanRequest space.
const serveSpaceSize = 4 * 4 * 128 * 4 * 16

func servePlanQuestion(seed uint64, k int) servePlanRequest {
	mbs := make([]int, 128)
	for i := range mbs {
		mbs[i] = 4 + i
	}
	// One factor in each of 15 equal slices of [0.5, 1): the values are
	// fresh every op, but how close the best degraded point comes to the
	// undegraded one — which sets how many points branch-and-bound
	// simulates — varies little from op to op.
	r := newRNG(seed, "serve-plan", k)
	degrade := []float64{1}
	for i := 0; i < 15; i++ {
		degrade = append(degrade, r.between(0.5+float64(i)/30, 0.5+float64(i+1)/30))
	}
	return servePlanRequest{
		Profile:   "fig7",
		PPRange:   []int{1, 2, 4, 8},
		DPRange:   []int{1, 2, 4, 8},
		MBRange:   mbs,
		Schedules: []string{"1f1b", "gpipe", "interleaved2", "zb-h1"},
		Degrade:   degrade,
		Strategy:  "bnb",
	}
}

// whatIfClasses are the kernel classes sweep-whatif re-times.
var whatIfClasses = []lumos.KernelClass{lumos.KCGEMM, lumos.KCAttention, lumos.KCElementwise, lumos.KCNorm, lumos.KCComm}

// whatIfFabrics are the presets sweep-whatif reprices the base onto.
var whatIfFabrics = []string{"flat", "nvl72", "spine4"}

// sweepQuestion is sweep-whatif's campaign k: 18 fresh scenarios (5 kernel
// classes × 3 factors, 3 fabrics × 1 degrade factor) and 19 that repeat in
// every op and are served by the memo after the first. One degrade factor
// per fabric, not two, keeps an op near a quarter second, so a run holds
// over a hundred of them.
type sweepQuestion struct {
	Scenarios []lumos.Scenario
	// Fresh and Repeated name the two groups.
	Fresh, Repeated []string
	// Fabric maps each fabric scenario (a subset of Fresh) to the degraded
	// fabric it predicts onto.
	Fabric map[string]lumos.Fabric
}

func sweepWhatIfQuestion(seed uint64, k int, base lumos.Config) sweepQuestion {
	r := newRNG(seed, "sweep-whatif", k)
	var q sweepQuestion
	add := func(group *[]string, sc lumos.Scenario) {
		q.Scenarios = append(q.Scenarios, sc)
		*group = append(*group, sc.Name())
	}
	for _, class := range whatIfClasses {
		// Three bands keep the two-decimal scenario names of one op
		// distinct while the full-precision factors stay fresh.
		for j := 0; j < 3; j++ {
			add(&q.Fresh, lumos.ClassScaleScenario(class, r.between(0.55+0.15*float64(j), 0.65+0.15*float64(j))))
		}
	}
	var fabrics []lumos.Fabric
	for _, name := range whatIfFabrics {
		f, err := lumos.FabricPreset(name, base.Map.WorldSize())
		if err != nil {
			panic(err) // fixed preset names
		}
		fabrics = append(fabrics, f)
	}
	factors := []float64{r.between(0.5, 0.95)}
	q.Fabric = map[string]lumos.Fabric{}
	// FabricSweep enumerates fabrics outermost, factors innermost.
	for i, sc := range lumos.FabricSweep(fabrics, factors) {
		add(&q.Fresh, sc)
		df, err := lumos.DegradeFabric(fabrics[i/len(factors)], lumos.NetworkDegradeFactors(factors[i%len(factors)])...)
		if err != nil {
			panic(err) // factors in (0, 1)
		}
		q.Fabric[sc.Name()] = df
	}
	add(&q.Repeated, lumos.BaselineScenario())
	add(&q.Repeated, lumos.FusionScenario())
	for _, sc := range lumos.ScheduleSweep([]string{"1f1b", "gpipe", "interleaved2", "zb-h1"}) {
		add(&q.Repeated, sc)
	}
	for _, sc := range lumos.GridSweep(base.Arch, []int{base.Map.TP}, []int{1, 2, 4}, []int{1, 2, 4}) {
		add(&q.Repeated, sc)
	}
	for _, arch := range []lumos.Arch{lumos.GPT3_V1(), lumos.GPT3_V2(), lumos.GPT3_V3(), lumos.GPT3_V4()} {
		add(&q.Repeated, lumos.ArchScenario(arch))
	}
	return q
}

// Benchmarks: one per table/figure of the paper's evaluation, plus the
// ablations from DESIGN.md §5. Each benchmark regenerates its experiment's
// pipeline at a size that fits a laptop-class machine and reports the
// domain metrics (replay error, prediction error) via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as a miniature reproduction run.
// The full-size sweeps live in cmd/experiments.
package lumos

import (
	"context"
	"fmt"
	"testing"

	"lumos/internal/analysis"
	"lumos/internal/cluster"
	"lumos/internal/dpro"
	"lumos/internal/execgraph"
	"lumos/internal/manip"
	"lumos/internal/metrics"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/replay"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// benchConfig builds a deployment for benchmarks.
func benchConfig(b *testing.B, arch model.Arch, tp, pp, dp, mb int) parallel.Config {
	b.Helper()
	m, err := topology.NewMapping(tp, pp, dp)
	if err != nil {
		b.Fatal(err)
	}
	cfg := parallel.DefaultConfig(arch, m)
	cfg.Microbatches = mb
	return cfg
}

func benchSim(b *testing.B, cfg parallel.Config, seed uint64) *trace.Multi {
	b.Helper()
	out, err := cluster.Run(cfg, cluster.DefaultSimConfig(cfg.Map.WorldSize(), seed))
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// benchProfile profiles cfg once on tk, seed 42, for benchmarks that build
// campaign states over one profile.
func benchProfile(b *testing.B, tk *Toolkit, cfg Config) *Multi {
	b.Helper()
	traces, err := tk.Profile(context.Background(), cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	return traces
}

// freshCampaign prepares a new campaign state over traces with the timer
// stopped. Campaign states memoize scenario results and share synthesized
// graphs, so a benchmark that must pay for every prediction on every
// iteration evaluates on a fresh one.
func freshCampaign(b *testing.B, tk *Toolkit, cfg Config, traces *Multi) *BaseState {
	b.Helper()
	b.StopTimer()
	defer b.StartTimer()
	st, err := tk.PrepareTraces(context.Background(), cfg, traces)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkTable1_ModelPresets prices every Table 1 preset's per-layer op
// generation (the workload-model hot path).
func BenchmarkTable1_ModelPresets(b *testing.B) {
	archs := model.Table1()
	sc := model.ShapeConfig{TP: 8, MicrobatchSize: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range archs {
			for l := 0; l < a.Layers; l++ {
				_ = a.LayerForward(sc, l)
				_ = a.LayerBackward(sc, l)
			}
		}
	}
}

// replayErrorBench runs the Figure 5 pipeline (profile → graph → Lumos and
// dPRO replays → compare with a fresh iteration) for one configuration and
// reports both errors.
func replayErrorBench(b *testing.B, arch model.Arch, tp, pp, dp, mb int) {
	cfg := benchConfig(b, arch, tp, pp, dp, mb)
	var lumosErr, dproErr float64
	for i := 0; i < b.N; i++ {
		profiled := benchSim(b, cfg, 42+uint64(i))
		actual := benchSim(b, cfg, 1042+uint64(i))
		actualIter := actual.Duration()

		g, err := execgraph.Build(profiled, execgraph.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		lres, err := replay.Run(g, replay.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		dg, err := execgraph.Build(profiled, dpro.BuildOptions())
		if err != nil {
			b.Fatal(err)
		}
		dres, err := replay.Run(dg, dpro.ReplayOptions())
		if err != nil {
			b.Fatal(err)
		}
		lumosErr = metrics.RelErr(lres.Makespan, actualIter)
		dproErr = metrics.RelErr(dres.Makespan, actualIter)
	}
	b.ReportMetric(lumosErr, "lumos-err-%")
	b.ReportMetric(dproErr, "dpro-err-%")
}

// BenchmarkFig5_* regenerate the replay-accuracy comparison per model
// (scaled-down parallelism; the full 512-GPU grid runs via cmd/experiments).
func BenchmarkFig5_Replay15B(b *testing.B)  { replayErrorBench(b, model.GPT3_15B(), 2, 2, 2, 4) }
func BenchmarkFig5_Replay44B(b *testing.B)  { replayErrorBench(b, model.GPT3_44B(), 2, 2, 2, 4) }
func BenchmarkFig5_Replay117B(b *testing.B) { replayErrorBench(b, model.GPT3_117B(), 2, 2, 2, 4) }
func BenchmarkFig5_Replay175B(b *testing.B) { replayErrorBench(b, model.GPT3_175B(), 2, 2, 2, 4) }

// BenchmarkFig1_Breakdown175B regenerates the Figure 1 comparison (dPRO's
// breakdown distortion) on a reduced 175B deployment.
func BenchmarkFig1_Breakdown175B(b *testing.B) {
	cfg := benchConfig(b, model.GPT3_175B(), 2, 2, 2, 4)
	var overlapRatio float64
	for i := 0; i < b.N; i++ {
		profiled := benchSim(b, cfg, 7)
		actualBD := analysis.MultiBreakdown(profiled)
		dg, err := execgraph.Build(profiled, dpro.BuildOptions())
		if err != nil {
			b.Fatal(err)
		}
		dres, err := replay.Run(dg, dpro.ReplayOptions())
		if err != nil {
			b.Fatal(err)
		}
		dbd := analysis.MultiBreakdown(replay.ToTrace(dg, dres))
		overlapRatio = float64(dbd.Overlapped) / float64(actualBD.Overlapped)
	}
	b.ReportMetric(overlapRatio, "dpro-overlap-ratio")
}

// BenchmarkFig6_SMUtilization regenerates the SM-utilization comparison.
func BenchmarkFig6_SMUtilization(b *testing.B) {
	cfg := benchConfig(b, model.GPT3_15B(), 2, 2, 2, 4)
	profiled := benchSim(b, cfg, 11)
	g, err := execgraph.Build(profiled, execgraph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	res, err := replay.Run(g, replay.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	sim := replay.ToTrace(g, res)
	b.ResetTimer()
	var diff float64
	for i := 0; i < b.N; i++ {
		aU := analysis.EffectiveSMUtilization(profiled, 0, trace.Millisecond)
		lU := analysis.EffectiveSMUtilization(sim, 0, trace.Millisecond)
		n := len(aU)
		if len(lU) < n {
			n = len(lU)
		}
		var s float64
		for j := 0; j < n; j++ {
			d := aU[j] - lU[j]
			if d < 0 {
				d = -d
			}
			s += d
		}
		diff = s / float64(n)
	}
	b.ReportMetric(diff, "mean-abs-util-err")
}

// predictBench runs a Figure 7/8-style manipulation prediction, a
// one-scenario campaign over a fresh profile, and reports its error vs a
// ground-truth run of the target.
func predictBench(b *testing.B, req manip.Request, seed uint64) {
	tk := New()
	target := DeployScenario("target", func(Config) Config { return req.Target })
	var predErr float64
	for i := 0; i < b.N; i++ {
		profiled := benchSim(b, req.Base, 21)
		sweep, err := tk.EvaluateTraces(context.Background(), req.Base, profiled, target)
		if err != nil {
			b.Fatal(err)
		}
		pred := sweep.Results[0]
		if !pred.Feasible() {
			b.Fatal(pred.Err)
		}
		actual := benchSim(b, req.Target, seed+uint64(i))
		predErr = metrics.RelErr(pred.Iteration, actual.Duration())
	}
	b.ReportMetric(predErr, "pred-err-%")
}

func fig7Base(b *testing.B) parallel.Config {
	return benchConfig(b, model.GPT3_15B(), 2, 2, 2, 8)
}

// BenchmarkFig7a_ScaleDP regenerates the DP scale-out prediction.
func BenchmarkFig7a_ScaleDP(b *testing.B) {
	predictBench(b, manip.ScaleDP(fig7Base(b), 4), 3100)
}

// BenchmarkFig7b_ScalePP regenerates the PP scale-out prediction.
func BenchmarkFig7b_ScalePP(b *testing.B) {
	predictBench(b, manip.ScalePP(fig7Base(b), 4), 3200)
}

// BenchmarkFig7c_ScaleDPPP regenerates the simultaneous scaling prediction.
func BenchmarkFig7c_ScaleDPPP(b *testing.B) {
	predictBench(b, manip.Scale3D(fig7Base(b), 4, 4), 3300)
}

// BenchmarkFig8_ArchVariants regenerates the architecture-change prediction
// for each Table 2 variant.
func BenchmarkFig8_ArchVariants(b *testing.B) {
	base := fig7Base(b)
	for _, v := range []model.Arch{model.GPT3_V1(), model.GPT3_V3()} {
		v := v
		b.Run(v.Name, func(b *testing.B) {
			target := base
			target.Arch = v
			predictBench(b, manip.Request{Base: base, Target: target}, 3400)
		})
	}
}

// --- Ablations (DESIGN.md §5) ---------------------------------------------

// BenchmarkAblation_NoInterStreamDeps measures how much replay error the
// inter-stream dependencies remove — the paper's core claim.
func BenchmarkAblation_NoInterStreamDeps(b *testing.B) {
	cfg := benchConfig(b, model.GPT3_15B(), 4, 1, 2, 4)
	var withErr, withoutErr float64
	for i := 0; i < b.N; i++ {
		profiled := benchSim(b, cfg, 31)
		actual := benchSim(b, cfg, 1031+uint64(i))
		ai := actual.Duration()
		full := execgraph.DefaultOptions()
		none := execgraph.DefaultOptions()
		none.InterStream = execgraph.InterStreamNone

		gf, err := execgraph.Build(profiled, full)
		if err != nil {
			b.Fatal(err)
		}
		rf, err := replay.Run(gf, replay.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		gn, err := execgraph.Build(profiled, none)
		if err != nil {
			b.Fatal(err)
		}
		uncoupled := replay.DefaultOptions()
		uncoupled.CoupleCollectives = false
		rn, err := replay.Run(gn, uncoupled)
		if err != nil {
			b.Fatal(err)
		}
		withErr = metrics.RelErr(rf.Makespan, ai)
		withoutErr = metrics.RelErr(rn.Makespan, ai)
	}
	b.ReportMetric(withErr, "with-deps-err-%")
	b.ReportMetric(withoutErr, "without-deps-err-%")
}

// BenchmarkAblation_ContentionModel quantifies the ground-truth contention
// penalty's contribution to replay error.
func BenchmarkAblation_ContentionModel(b *testing.B) {
	cfg := benchConfig(b, model.GPT3_15B(), 2, 2, 2, 4)
	var errOn, errOff float64
	for i := 0; i < b.N; i++ {
		for _, contention := range []bool{true, false} {
			sp := cluster.DefaultSimConfig(cfg.Map.WorldSize(), 41)
			sa := cluster.DefaultSimConfig(cfg.Map.WorldSize(), 1041+uint64(i))
			if !contention {
				sp.OverlapComputeSlowdown, sp.OverlapCommSlowdown = 1, 1
				sa.OverlapComputeSlowdown, sa.OverlapCommSlowdown = 1, 1
			}
			profiled, err := cluster.Run(cfg, sp)
			if err != nil {
				b.Fatal(err)
			}
			actual, err := cluster.Run(cfg, sa)
			if err != nil {
				b.Fatal(err)
			}
			g, err := execgraph.Build(profiled, execgraph.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			res, err := replay.Run(g, replay.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			e := metrics.RelErr(res.Makespan, actual.Duration())
			if contention {
				errOn = e
			} else {
				errOff = e
			}
		}
	}
	b.ReportMetric(errOn, "contention-on-err-%")
	b.ReportMetric(errOff, "contention-off-err-%")
}

// BenchmarkAblation_SchedulePolicy compares 1F1B and GPipe ground truth.
func BenchmarkAblation_SchedulePolicy(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		iter := map[parallel.SchedulePolicy]trace.Dur{}
		for _, pol := range []parallel.SchedulePolicy{parallel.OneFOneB, parallel.GPipe} {
			cfg := benchConfig(b, model.GPT3_15B(), 2, 4, 1, 8)
			cfg.Schedule = pol
			iter[pol] = benchSim(b, cfg, 51).Duration()
		}
		r = float64(iter[parallel.GPipe]) / float64(iter[parallel.OneFOneB])
	}
	b.ReportMetric(r, "gpipe/1f1b")
}

// --- Component micro-benchmarks -------------------------------------------

// BenchmarkGroundTruthSimulator measures the cluster substrate's throughput.
func BenchmarkGroundTruthSimulator(b *testing.B) {
	cfg := benchConfig(b, model.GPT3_15B(), 2, 2, 2, 4)
	b.ReportAllocs()
	var events int
	for i := 0; i < b.N; i++ {
		out := benchSim(b, cfg, uint64(i))
		events = out.Events()
	}
	b.ReportMetric(float64(events), "events")
}

// BenchmarkSynthesize measures the synthesis layer two ways, with GPT-3
// 15B and 8 microbatches:
//   - schedule=<name>: the jittered ground-truth simulator on the fig7
//     target (TP2×PP2×DP2) under each pipeline schedule. Ground truth
//     always simulates every rank: program building (one build per stage,
//     stamped across its replicas), the discrete-event simulation and
//     graph emission.
//   - path=predict/schedule=1f1b: manip.PredictGraphWith on TP2×PP2×DP4
//     with the fig7 campaign's calibration, as every deploy prediction and
//     plan point runs it: the DP replicas split into price classes, then
//     one representative replica simulated.
//
// cmd/benchjson records the labels in BENCH_sweep.json;
// TestSynthesizeAllocBudget (internal/cluster) bounds both shapes' bytes.
func BenchmarkSynthesize(b *testing.B) {
	for _, spec := range []string{"1f1b", "gpipe", "interleaved2", "zb-h1"} {
		cfg, err := WithScheduleSpec(benchConfig(b, model.GPT3_15B(), 2, 2, 2, 8), spec)
		if err != nil {
			b.Fatal(err)
		}
		simCfg := cluster.DefaultSimConfig(cfg.Map.WorldSize(), 42)
		b.Run("schedule="+spec, func(b *testing.B) {
			b.ReportAllocs()
			var tasks int
			for i := 0; i < b.N; i++ {
				g, err := cluster.Synthesize(cfg, simCfg, nil)
				if err != nil {
					b.Fatal(err)
				}
				tasks = len(g.Tasks)
			}
			b.ReportMetric(float64(tasks), "tasks")
		})
	}
	b.Run("path=predict/schedule=1f1b", func(b *testing.B) {
		base := benchConfig(b, model.GPT3_15B(), 2, 2, 2, 8)
		st, err := New().Prepare(context.Background(), base, 42)
		if err != nil {
			b.Fatal(err)
		}
		req := manip.ScaleDP(base, 4)
		b.ResetTimer()
		b.ReportAllocs()
		var tasks int
		for i := 0; i < b.N; i++ {
			out, err := manip.PredictGraphWith(req, st.Library, st.Fitted, st.Fabric)
			if err != nil {
				b.Fatal(err)
			}
			tasks = len(out.Graph.Tasks)
		}
		b.ReportMetric(float64(tasks), "tasks")
	})
}

// BenchmarkGraphBuild measures execution-graph construction.
func BenchmarkGraphBuild(b *testing.B) {
	cfg := benchConfig(b, model.GPT3_15B(), 2, 2, 2, 4)
	profiled := benchSim(b, cfg, 3)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := execgraph.Build(profiled, execgraph.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(g.Tasks) == 0 {
			b.Fatal("empty graph")
		}
	}
}

// BenchmarkReplaySimulator measures Algorithm 1's throughput.
func BenchmarkReplaySimulator(b *testing.B) {
	cfg := benchConfig(b, model.GPT3_15B(), 2, 2, 2, 4)
	profiled := benchSim(b, cfg, 5)
	g, err := execgraph.Build(profiled, execgraph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Run(g, replay.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(g.Tasks)), "tasks")
}

// BenchmarkBreakdownAnalysis measures the interval-algebra analysis.
func BenchmarkBreakdownAnalysis(b *testing.B) {
	cfg := benchConfig(b, model.GPT3_15B(), 2, 2, 2, 4)
	profiled := benchSim(b, cfg, 9)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bd := analysis.MultiBreakdown(profiled)
		if bd.Total == 0 {
			b.Fatal("no breakdown")
		}
	}
}

var benchSink string

// BenchmarkTable2_VariantSweep exercises preset construction and parameter
// accounting for the Table 2 variants.
func BenchmarkTable2_VariantSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, a := range model.Table2() {
			benchSink = fmt.Sprintf("%s:%d", a.Name, a.Params())
		}
	}
}

// BenchmarkAblation_SequenceParallel compares the sequence-parallel and
// all-reduce TP variants in ground truth (paper §2.2's emerging technique).
func BenchmarkAblation_SequenceParallel(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(b, model.GPT3_15B(), 4, 1, 1, 4)
		plain := benchSim(b, cfg, 61).Duration()
		cfg.SequenceParallel = true
		sp := benchSim(b, cfg, 61).Duration()
		ratio = float64(sp) / float64(plain)
	}
	b.ReportMetric(ratio, "sp/ar-iter-ratio")
}

// BenchmarkWhatIfFusion measures the operator-fusion counterfactual from
// the paper's Section 3.4 motivation.
func BenchmarkWhatIfFusion(b *testing.B) {
	cfg := benchConfig(b, model.GPT3_15B(), 2, 1, 1, 4)
	profiled := benchSim(b, cfg, 63)
	g, err := execgraph.Build(profiled, execgraph.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	tk := New()
	b.ResetTimer()
	var speedup float64
	for i := 0; i < b.N; i++ {
		rep, err := tk.WhatIfFusion(context.Background(), g, analysis.DefaultFusionOpts())
		if err != nil {
			b.Fatal(err)
		}
		speedup = rep.Speedup()
	}
	b.ReportMetric(speedup, "fusion-speedup")
}

// BenchmarkSweep_SharedCalibration measures the campaign hot path: an
// 8-scenario Evaluate against prepared base state, where every scenario
// shares one execution graph, kernel library and fitted model. The
// per-scenario cost is what a sweep service pays per design point.
func BenchmarkSweep_SharedCalibration(b *testing.B) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Microbatches = 4
	base, err := tk.Prepare(ctx, cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	scenarios := append(GridSweep(GPT3_15B(), []int{2}, []int{1, 2}, []int{1, 2}),
		BaselineScenario(),
		ArchScenario(GPT3_V1()),
		ClassScaleScenario(KCGEMM, 0.5),
		FusionScenario(),
	)
	b.ResetTimer()
	b.ReportAllocs()
	var feasible int
	for i := 0; i < b.N; i++ {
		sweep, err := tk.EvaluateState(ctx, base, scenarios...)
		if err != nil {
			b.Fatal(err)
		}
		feasible = len(sweep.Top(len(scenarios)))
	}
	b.ReportMetric(float64(feasible), "feasible-scenarios")
}

// BenchmarkSweepThroughput measures the raw per-scenario prediction cost:
// every iteration evaluates the campaign on a fresh campaign state,
// prepared outside the timer, so each deploy scenario pays direct graph
// synthesis (no trace round trip) and the kernel what-ifs pay one lowering
// of the base program, retiming into pooled duration columns and pooled
// replay scratches; nothing is served by an earlier iteration's memo or
// structural cache.
func BenchmarkSweepThroughput(b *testing.B) {
	ctx := context.Background()
	tk := New(WithConcurrency(4))
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Microbatches = 4
	traces := benchProfile(b, tk, cfg)
	scenarios := append(GridSweep(GPT3_15B(), []int{2}, []int{1, 2}, []int{1, 2}),
		BaselineScenario(),
		ArchScenario(GPT3_V1()),
		ClassScaleScenario(KCGEMM, 0.5),
		FusionScenario(),
	)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep, err := tk.EvaluateState(ctx, freshCampaign(b, tk, cfg, traces), scenarios...)
		if err != nil {
			b.Fatal(err)
		}
		if len(sweep.Results) != len(scenarios) {
			b.Fatal("scenario lost")
		}
	}
	b.ReportMetric(float64(len(scenarios)), "scenarios/sweep")
}

// BenchmarkReplayEngine measures the retimed what-if hot path: a campaign
// of ten kernel-class retimings, each a full replay of the shared base
// program under pooled duration columns on a pooled scratch. The
// retimings are KernelScaleScenarios over predicates, which have no
// fingerprint, so the memo serves none of them and every iteration replays
// all ten; the base program is lowered once, on the first iteration.
func BenchmarkReplayEngine(b *testing.B) {
	ctx := context.Background()
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Microbatches = 4
	scenarios := []Scenario{BaselineScenario()}
	for _, class := range []KernelClass{KCGEMM, KCAttention, KCElementwise, KCNorm, KCComm} {
		match := func(t *Task) bool { return t.Class == class }
		scenarios = append(scenarios,
			KernelScaleScenario(fmt.Sprintf("%s x0.50", class), match, 0.5),
			KernelScaleScenario(fmt.Sprintf("%s x0.90", class), match, 0.9),
		)
	}
	tk := New(WithConcurrency(4), WithSeed(42))
	base, err := tk.Prepare(ctx, cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep, err := tk.EvaluateState(ctx, base, scenarios...)
		if err != nil {
			b.Fatal(err)
		}
		if len(sweep.Results) != len(scenarios) {
			b.Fatal("scenario lost")
		}
	}
}

// BenchmarkSweep_FabricCampaign measures the fabric-binding hot path per
// topology: a campaign of fabric × degradation what-ifs, evaluated on a
// fresh campaign state per iteration (prepared outside the timer), so
// every iteration pays the base deployment's synthesis and the full
// re-pricing and replay of each what-if. Sub-benchmarks carry a
// fabric=<preset> label that cmd/benchjson records in BENCH_sweep.json,
// making entries comparable across topologies.
func BenchmarkSweep_FabricCampaign(b *testing.B) {
	ctx := context.Background()
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Microbatches = 4
	world := cfg.Map.WorldSize()
	for _, fb := range []Fabric{
		H100Cluster(world),
		NVLDomainFabric(world),
		OversubscribedFabric(world, 4),
	} {
		fb := fb
		b.Run("fabric="+fb.FabricName(), func(b *testing.B) {
			tk := New(WithConcurrency(4))
			traces := benchProfile(b, tk, cfg)
			scenarios := append([]Scenario{BaselineScenario()},
				FabricSweep([]Fabric{fb}, []float64{1, 0.5})...)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sweep, err := tk.EvaluateState(ctx, freshCampaign(b, tk, cfg, traces), scenarios...)
				if err != nil {
					b.Fatal(err)
				}
				if len(sweep.Results) != len(scenarios) {
					b.Fatal("scenario lost")
				}
			}
			b.ReportMetric(float64(len(scenarios)), "scenarios/sweep")
		})
	}
}

// BenchmarkSweep_DiskCacheWarmStart measures what the disk-backed scenario
// cache buys a fresh process: each iteration is one full "process" — load
// the persisted rank traces, build campaign state, evaluate the grid —
// against either an empty cache directory (cache=cold: pays calibration,
// simulation, and the cache writes) or one populated by a previous run
// (cache=warm: calibration and every scenario served off disk). The
// sub-benchmark cache=<cold|warm> labels land in BENCH_sweep.json via
// cmd/benchjson, so the warm-start speedup is tracked release over
// release.
func BenchmarkSweep_DiskCacheWarmStart(b *testing.B) {
	ctx := context.Background()
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Microbatches = 4
	traceDir := b.TempDir()
	m, err := New(WithSeed(42)).Profile(ctx, cfg, 42)
	if err != nil {
		b.Fatal(err)
	}
	if err := SaveTraces(m, traceDir); err != nil {
		b.Fatal(err)
	}
	scenarios := append(GridSweep(GPT3_15B(), []int{2}, []int{1, 2}, []int{1, 2}),
		BaselineScenario())

	// run is one cold-started process sharing only the cache directory.
	run := func(b *testing.B, cacheDir string) *BaseState {
		traces, err := LoadTraces(traceDir)
		if err != nil {
			b.Fatal(err)
		}
		tk := New(WithSeed(42), WithConcurrency(4), WithDiskCache(cacheDir))
		st, err := tk.PrepareTraces(ctx, cfg, traces)
		if err != nil {
			b.Fatal(err)
		}
		sweep, err := tk.EvaluateState(ctx, st, scenarios...)
		if err != nil {
			b.Fatal(err)
		}
		if len(sweep.Results) != len(scenarios) {
			b.Fatal("scenario lost")
		}
		return st
	}

	b.Run("cache=cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			b.StartTimer()
			run(b, dir)
		}
	})
	b.Run("cache=warm", func(b *testing.B) {
		dir := b.TempDir()
		run(b, dir) // populate the cache once, untimed
		b.ResetTimer()
		b.ReportAllocs()
		var hits int64
		for i := 0; i < b.N; i++ {
			st := run(b, dir)
			hits = st.CacheStats().DiskHits
		}
		if hits == 0 {
			b.Fatal("warm run served nothing from disk")
		}
		b.ReportMetric(float64(hits), "disk-hits")
	})
}

// BenchmarkSweep_ScheduleCampaign measures the schedule what-if hot path
// per pipeline schedule: one shared profile, each sub-benchmark iteration
// re-predicting the base deployment under one schedule on a fresh campaign
// state prepared outside the timer (regenerated slot structure —
// interleaved chunk P2P, zero-bubble split backward — synthesized against
// the campaign's kernel library). Sub-benchmarks carry a schedule=<name>
// label that cmd/benchjson records in BENCH_sweep.json; the pred-ms metric
// tracks each schedule's predicted iteration time so regressions in the
// schedule economics fail loudly.
func BenchmarkSweep_ScheduleCampaign(b *testing.B) {
	ctx := context.Background()
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Microbatches = 4
	tk := New(WithConcurrency(4))
	traces := benchProfile(b, tk, cfg)
	for _, spec := range []string{"1f1b", "gpipe", "interleaved2", "zb-h1"} {
		spec := spec
		b.Run("schedule="+spec, func(b *testing.B) {
			scenarios := []Scenario{BaselineScenario(), ScheduleScenario(spec)}
			b.ResetTimer()
			b.ReportAllocs()
			var last ScenarioResult
			for i := 0; i < b.N; i++ {
				sweep, err := tk.EvaluateState(ctx, freshCampaign(b, tk, cfg, traces), scenarios...)
				if err != nil {
					b.Fatal(err)
				}
				if len(sweep.Results) != len(scenarios) {
					b.Fatal("scenario lost")
				}
				for _, r := range sweep.Results {
					if r.Kind == "schedule" {
						if !r.Feasible() {
							b.Fatalf("%s infeasible: %s", r.Name, r.Err)
						}
						last = r
					}
				}
			}
			b.ReportMetric(float64(last.Iteration)/1e6, "pred-ms")
		})
	}
}

// BenchmarkPlan_Strategies measures the deployment planner per search
// strategy over one fig7-style space, planning on a fresh campaign state
// per iteration (prepared outside the timer) so every promoted point pays
// its full simulation cost. Sub-benchmarks carry a strategy=<name> label
// that cmd/benchjson records in BENCH_sweep.json; the simulated-points
// metric shows branch-and-bound promoting fewer points than exhaustive
// while the best-ms metric shows the same best point.
func BenchmarkPlan_Strategies(b *testing.B) {
	ctx := context.Background()
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Microbatches = 4
	space := Space{
		PP:         []int{1, 2, 4},
		DP:         []int{1, 2},
		Microbatch: []int{4, 8},
	}
	mem := MemoryModel{GPUMemBytes: 192 << 30, ZeRO: ZeROOptimizer}
	for _, strat := range []PlanStrategy{ExhaustiveStrategy(), BranchAndBoundStrategy()} {
		strat := strat
		b.Run("strategy="+strat.Name(), func(b *testing.B) {
			tk := New(WithConcurrency(4))
			traces := benchProfile(b, tk, cfg)
			b.ResetTimer()
			b.ReportAllocs()
			var simulated, bestMS float64
			for i := 0; i < b.N; i++ {
				res, err := tk.PlanState(ctx, freshCampaign(b, tk, cfg, traces), space,
					WithPlanStrategy(strat), WithMemoryModel(mem))
				if err != nil {
					b.Fatal(err)
				}
				best, ok := res.Best()
				if !ok {
					b.Fatal("no feasible point")
				}
				simulated = float64(res.Stats.Simulated)
				bestMS = analysis.Millis(best.Iteration)
			}
			b.ReportMetric(simulated, "simulated-points")
			b.ReportMetric(bestMS, "best-ms")
		})
	}
}

// BenchmarkPlan_BranchAndBound measures exact search at scale: one
// fig7-style profile and a ~1.3×10⁵-point space over pipeline/data
// degrees, microbatch count, pipeline schedule, and network degrade
// factors, with branch-and-bound required to return the provably optimal
// point. Each iteration plans on a fresh campaign state, prepared outside
// the timer, so no simulated point is served by an earlier iteration. The
// sub-benchmark carries strategy=/space= labels that cmd/benchjson
// records in BENCH_sweep.json; the simulated-points and
// bound-pruned metrics show how little of the space pays for full
// simulation, and best-ms pins the answer so quality regressions fail
// loudly alongside throughput ones.
func BenchmarkPlan_BranchAndBound(b *testing.B) {
	ctx := context.Background()
	cfg, err := DeploymentConfig(GPT3_15B(), 2, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Microbatches = 4
	mbs := make([]int, 128)
	for i := range mbs {
		mbs[i] = 4 + i
	}
	degrade := make([][]float64, 16)
	for i := range degrade {
		degrade[i] = NetworkDegradeFactors(1 - 0.05*float64(i))
	}
	space := Space{
		PP:         []int{1, 2, 4, 8},
		DP:         []int{1, 2, 4, 8},
		Microbatch: mbs,
		Schedules:  []string{"1f1b", "gpipe", "interleaved2", "zb-h1"},
		Degrade:    degrade,
	}
	mem := MemoryModel{GPUMemBytes: 192 << 30, ZeRO: ZeROOptimizer}
	tk := New(WithConcurrency(4))
	traces := benchProfile(b, tk, cfg)
	b.Run(fmt.Sprintf("strategy=bnb/space=%d", space.Size(cfg)), func(b *testing.B) {
		b.ResetTimer()
		b.ReportAllocs()
		var stats PlanStats
		var bestMS float64
		for i := 0; i < b.N; i++ {
			res, err := tk.PlanState(ctx, freshCampaign(b, tk, cfg, traces), space,
				WithPlanStrategy(BranchAndBoundStrategy()), WithMemoryModel(mem))
			if err != nil {
				b.Fatal(err)
			}
			best, ok := res.Best()
			if !ok {
				b.Fatal("no feasible point")
			}
			stats = res.Stats
			bestMS = analysis.Millis(best.Iteration)
		}
		b.ReportMetric(float64(stats.Simulated), "simulated-points")
		b.ReportMetric(float64(stats.BoundPruned), "bound-pruned")
		b.ReportMetric(bestMS, "best-ms")
	})
}

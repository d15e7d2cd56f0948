// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 4) against the simulated cluster substrate:
//
//	experiments table1            model presets (Table 1)
//	experiments table2            architecture variants (Table 2)
//	experiments fig1              dPRO vs actual breakdown, GPT-3 175B 8x4x8
//	experiments fig5              replay accuracy, 4 models × 6 configs
//	experiments fig6              SM utilization, 15B 2x2x4
//	experiments fig7a             DP scale-out prediction
//	experiments fig7b             PP scale-out prediction
//	experiments fig7c             simultaneous DP+PP prediction
//	experiments fig8              architecture-change prediction
//	experiments ablations         design-choice ablations (DESIGN.md §5)
//	experiments all               everything above
//
// -quick shrinks the sweep (fewer/smaller configurations) for smoke runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"lumos"
	"lumos/internal/analysis"
	"lumos/internal/cluster"
	"lumos/internal/dpro"
	"lumos/internal/execgraph"
	"lumos/internal/kernelmodel"
	"lumos/internal/manip"
	"lumos/internal/metrics"
	"lumos/internal/model"
	"lumos/internal/parallel"
	"lumos/internal/replay"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

var (
	quick   = flag.Bool("quick", false, "run reduced-size configurations")
	seed    = flag.Uint64("seed", 42, "base seed; the 'actual' iteration uses seed+1000")
	verbose = flag.Bool("v", false, "print per-step timing")
	only    = flag.String("model", "", "fig5: restrict to models whose name contains this substring")
)

func main() {
	flag.Parse()
	cmd := "all"
	if flag.NArg() > 0 {
		cmd = flag.Arg(0)
	}
	start := time.Now()
	ok := true
	switch cmd {
	case "table1":
		table1()
	case "table2":
		table2()
	case "fig1":
		fig1()
	case "fig5":
		fig5()
	case "fig6":
		fig6()
	case "fig7a":
		fig7a()
	case "fig7b":
		fig7b()
	case "fig7c":
		fig7c()
	case "fig8":
		fig8()
	case "ablations":
		ok = ablations()
	case "all":
		table1()
		table2()
		fig1()
		fig5()
		fig6()
		fig7a()
		fig7b()
		fig7c()
		fig8()
		ok = ablations()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
		os.Exit(2)
	}
	fmt.Printf("\n[%s done in %v]\n", cmd, time.Since(start).Round(time.Millisecond))
	if !ok {
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	if *verbose {
		fmt.Printf("# "+format+"\n", args...)
	}
}

// config assembles a deployment.
func config(arch model.Arch, tp, pp, dp, mb int) parallel.Config {
	m, err := topology.NewMapping(tp, pp, dp)
	if err != nil {
		panic(err)
	}
	cfg := parallel.DefaultConfig(arch, m)
	cfg.Microbatches = mb
	return cfg
}

// simulate runs the ground-truth simulator for one iteration.
func simulate(cfg parallel.Config, seed uint64) *trace.Multi {
	world := cfg.Map.WorldSize()
	sc := cluster.DefaultSimConfig(world, seed)
	m, err := cluster.Run(cfg, sc)
	if err != nil {
		panic(fmt.Sprintf("ground-truth simulation failed: %v", err))
	}
	return m
}

// replayOutcome is one tool's replay of a profiled trace.
type replayOutcome struct {
	iter trace.Dur
	bd   analysis.Breakdown
}

// replayWith builds a graph with the given options and replays it.
func replayWith(profiled *trace.Multi, gOpts execgraph.BuildOptions, rOpts replay.Options) replayOutcome {
	g, err := execgraph.Build(profiled, gOpts)
	if err != nil {
		panic(err)
	}
	res, err := replay.Run(g, rOpts)
	if err != nil {
		panic(err)
	}
	tr := replay.ToTrace(g, res)
	return replayOutcome{iter: res.Makespan, bd: analysis.MultiBreakdown(tr)}
}

// compareOne profiles, replays with Lumos and dPRO, and compares to a fresh
// "actual" iteration.
func compareOne(label string, cfg parallel.Config) metrics.Row {
	logf("%s: world=%d microbatches=%d", label, cfg.Map.WorldSize(), cfg.Microbatches)
	profiled := simulate(cfg, *seed)
	actual := simulate(cfg, *seed+1000)
	actualIter := analysis.IterationTime(actual)
	actualBD := analysis.MultiBreakdown(actual)
	actual = nil
	runtime.GC()

	lum := replayWith(profiled, execgraph.DefaultOptions(), replay.DefaultOptions())
	dp := replayWith(profiled, dpro.BuildOptions(), dpro.ReplayOptions())
	profiled = nil
	runtime.GC()

	return metrics.Row{
		Label:    label,
		Actual:   actualIter,
		Lumos:    lum.iter,
		DPRO:     dp.iter,
		LumosErr: metrics.RelErr(lum.iter, actualIter),
		DPROErr:  metrics.RelErr(dp.iter, actualIter),
		ActualBD: actualBD,
		LumosBD:  lum.bd,
		DPROBD:   dp.bd,
	}
}

// halfGEMM is a kernel oracle under which every GEMM runs at half the
// wrapped oracle's duration: the ground truth for a GEMM x0.5 what-if.
type halfGEMM struct{ kernelmodel.Predictor }

// Compute implements kernelmodel.Predictor.
func (h halfGEMM) Compute(class trace.KernelClass, flops, bytes int64) trace.Dur {
	d := h.Predictor.Compute(class, flops, bytes)
	if class == trace.KCGEMM {
		d = trace.Dur(float64(d) * 0.5)
	}
	return d
}

// truth runs the ground-truth simulator under a configuration that adjust
// rewrites and returns its iteration time.
func truth(cfg parallel.Config, seed uint64, adjust func(*cluster.SimConfig)) trace.Dur {
	sc := cluster.DefaultSimConfig(cfg.Map.WorldSize(), seed)
	adjust(&sc)
	m, err := cluster.Run(cfg, sc)
	if err != nil {
		panic(fmt.Sprintf("ground-truth simulation failed: %v", err))
	}
	return analysis.IterationTime(m)
}

// whatIf builds a graph from the profile, rewrites its replay columns
// with retime and replays them.
func whatIf(profiled *trace.Multi, gOpts execgraph.BuildOptions, rOpts replay.Options, retime func(*execgraph.Graph, replay.Timings)) trace.Dur {
	g, err := execgraph.Build(profiled, gOpts)
	if err != nil {
		panic(err)
	}
	t := replay.NewTimings(g)
	retime(g, t)
	res, err := replay.Compile(g, rOpts).Run(t, replay.NewScratch())
	if err != nil {
		panic(err)
	}
	return res.Makespan
}

// ---------------------------------------------------------------------------
// Table 1 / Table 2

func table1() {
	fmt.Println("=== Table 1: model sizes and architectures ===")
	fmt.Printf("%-12s %10s %8s %8s %8s %8s %8s\n",
		"model", "params", "layers", "d_model", "d_ffn", "heads", "d_head")
	for _, a := range model.Table1() {
		fmt.Printf("%-12s %9.1fB %8d %8d %8d %8d %8d\n",
			a.Name, float64(a.Params())/1e9, a.Layers, a.Hidden, a.FFN, a.Heads, a.HeadDim)
	}
	fmt.Println()
}

func table2() {
	fmt.Println("=== Table 2: architecture variants (base GPT-3 15B) ===")
	fmt.Printf("%-12s %10s %8s %8s %8s\n", "model", "params", "layers", "d_model", "d_ffn")
	for _, a := range model.Table2() {
		fmt.Printf("%-12s %9.1fB %8d %8d %8d\n",
			a.Name, float64(a.Params())/1e9, a.Layers, a.Hidden, a.FFN)
	}
	fmt.Println()
}

// ---------------------------------------------------------------------------
// Figure 1: dPRO vs actual breakdown for GPT-3 175B, TP8 PP4 DP8.

func fig1() {
	fmt.Println("=== Figure 1: execution breakdown, GPT-3 175B TP8/PP4/DP8 ===")
	arch := model.GPT3_175B()
	cfg := config(arch, 8, 4, 8, 8)
	if *quick {
		cfg = config(model.GPT3_15B(), 2, 2, 2, 4)
		fmt.Println("(quick mode: GPT-3 15B 2x2x2 stand-in)")
	}
	row := compareOne("175B 8x4x8", cfg)
	fmt.Printf("%-8s compute=%5.0fms overlapped=%5.0fms comm=%5.0fms other=%5.0fms total=%5.0fms\n",
		"actual", analysis.Millis(row.ActualBD.ExposedCompute), analysis.Millis(row.ActualBD.Overlapped),
		analysis.Millis(row.ActualBD.ExposedComm), analysis.Millis(row.ActualBD.Other), analysis.Millis(row.Actual))
	fmt.Printf("%-8s compute=%5.0fms overlapped=%5.0fms comm=%5.0fms other=%5.0fms total=%5.0fms (%.1f%% under)\n",
		"dPRO", analysis.Millis(row.DPROBD.ExposedCompute), analysis.Millis(row.DPROBD.Overlapped),
		analysis.Millis(row.DPROBD.ExposedComm), analysis.Millis(row.DPROBD.Other), analysis.Millis(row.DPRO),
		row.DPROErr)
	fmt.Println()
}

// ---------------------------------------------------------------------------
// Figure 5: replay accuracy across models and parallelism strategies.

// fig5Configs mirrors the paper's TPxPPxDP grids per model.
func fig5Configs() map[string][][3]int {
	return map[string][][3]int{
		"GPT-3 15B":  {{2, 2, 4}, {2, 2, 8}, {2, 4, 2}, {2, 4, 4}, {4, 2, 2}, {4, 2, 4}},
		"GPT-3 44B":  {{4, 4, 2}, {4, 4, 4}, {4, 8, 1}, {4, 8, 2}, {8, 4, 1}, {8, 4, 2}},
		"GPT-3 117B": {{4, 8, 2}, {4, 8, 4}, {8, 4, 2}, {8, 4, 4}, {8, 8, 1}, {8, 8, 2}},
		"GPT-3 175B": {{4, 8, 4}, {4, 8, 8}, {4, 8, 16}, {8, 4, 4}, {8, 4, 8}, {8, 4, 16}},
	}
}

func fig5() {
	fmt.Println("=== Figure 5: per-iteration replay accuracy (Lumos vs dPRO vs actual) ===")
	archByName := map[string]model.Arch{
		"GPT-3 15B": model.GPT3_15B(), "GPT-3 44B": model.GPT3_44B(),
		"GPT-3 117B": model.GPT3_117B(), "GPT-3 175B": model.GPT3_175B(),
	}
	order := []string{"GPT-3 15B", "GPT-3 44B", "GPT-3 117B", "GPT-3 175B"}
	configs := fig5Configs()
	var allLumos, allDPRO []float64
	for _, name := range order {
		if *only != "" && !strings.Contains(name, *only) {
			continue
		}
		arch := archByName[name]
		t := &metrics.Table{Title: name}
		for _, c := range configs[name] {
			tp, pp, dp := c[0], c[1], c[2]
			if *quick && tp*pp*dp > 32 {
				continue
			}
			mb := 2 * pp
			if mb < 8 {
				mb = 8
			}
			// Cap the profiling window on >=256-GPU deployments so the whole
			// grid fits one machine; microbatches still fill the pipeline.
			if tp*pp*dp >= 256 && mb > pp {
				mb = pp
			}
			if *quick {
				mb = pp * 2
				if mb < 4 {
					mb = 4
				}
			}
			cfg := config(arch, tp, pp, dp, mb)
			row := compareOne(fmt.Sprintf("%dx%dx%d", tp, pp, dp), cfg)
			t.Add(row)
		}
		fmt.Println(t.String())
		allLumos = append(allLumos, t.LumosErrs()...)
		allDPRO = append(allDPRO, t.DPROErrs()...)
	}
	fmt.Printf("overall: lumos avg err %.1f%% (max %.1f%%); dPRO avg err %.1f%% (max %.1f%%)\n",
		metrics.Mean(allLumos), metrics.Max(allLumos), metrics.Mean(allDPRO), metrics.Max(allDPRO))
	fmt.Println("paper:   lumos avg err 3.3%; dPRO avg err 14% (max 21.8%)")
	fmt.Println()
}

// ---------------------------------------------------------------------------
// Figure 6: SM utilization timeline, GPT-3 15B TP2 PP2 DP4.

func fig6() {
	fmt.Println("=== Figure 6: SM utilization (1ms windows), GPT-3 15B 2x2x4 ===")
	cfg := config(model.GPT3_15B(), 2, 2, 4, 8)
	if *quick {
		cfg = config(model.GPT3_15B(), 2, 2, 2, 4)
	}
	profiled := simulate(cfg, *seed)
	actual := simulate(cfg, *seed+1000)

	lg, err := execgraph.Build(profiled, execgraph.DefaultOptions())
	if err != nil {
		panic(err)
	}
	lres, err := replay.Run(lg, replay.DefaultOptions())
	if err != nil {
		panic(err)
	}
	ltrace := replay.ToTrace(lg, lres)

	dg, err := execgraph.Build(profiled, dpro.BuildOptions())
	if err != nil {
		panic(err)
	}
	dres, err := replay.Run(dg, dpro.ReplayOptions())
	if err != nil {
		panic(err)
	}
	dtrace := replay.ToTrace(dg, dres)

	const win = trace.Millisecond
	aU := analysis.EffectiveSMUtilization(actual, 0, win)
	lU := analysis.EffectiveSMUtilization(ltrace, 0, win)
	dU := analysis.EffectiveSMUtilization(dtrace, 0, win)

	fmt.Printf("windows: actual=%d lumos=%d dpro=%d\n", len(aU), len(lU), len(dU))
	fmt.Printf("mean utilization: actual=%.3f lumos=%.3f dpro=%.3f\n",
		metrics.Mean(aU), metrics.Mean(lU), metrics.Mean(dU))
	fmt.Printf("mean |err| vs actual: lumos=%.3f dpro=%.3f\n",
		meanAbsDiff(aU, lU), meanAbsDiff(aU, dU))
	fmt.Println("timeline (10ms buckets, '#'=busy fraction):")
	fmt.Printf("  actual %s\n", sparkline(aU, 64))
	fmt.Printf("  lumos  %s\n", sparkline(lU, 64))
	fmt.Printf("  dpro   %s\n", sparkline(dU, 64))
	fmt.Println()
}

// meanAbsDiff compares two utilization series over their common prefix,
// penalizing length mismatch as full-scale error.
func meanAbsDiff(a, b []float64) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		return 1
	}
	var s float64
	for i := 0; i < n; i++ {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		s += d
	}
	longer := len(a)
	if len(b) > longer {
		longer = len(b)
	}
	s += float64(longer - n) // missing windows count as error 1.0
	return s / float64(longer)
}

// sparkline renders a utilization series as an ASCII density strip.
func sparkline(u []float64, width int) string {
	if len(u) == 0 {
		return ""
	}
	glyphs := []byte(" .:-=+*#%@")
	out := make([]byte, width)
	for w := 0; w < width; w++ {
		lo := w * len(u) / width
		hi := (w + 1) * len(u) / width
		if hi <= lo {
			hi = lo + 1
		}
		var s float64
		for i := lo; i < hi && i < len(u); i++ {
			s += u[i]
		}
		avg := s / float64(hi-lo)
		idx := int(avg * float64(len(glyphs)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(glyphs) {
			idx = len(glyphs) - 1
		}
		out[w] = glyphs[idx]
	}
	return string(out)
}

// ---------------------------------------------------------------------------
// Figure 7: scale-out prediction from a 2x2x4 baseline.

// fig7Base profiles the paper's baseline: GPT-3 15B, TP2 PP2 DP4.
func fig7Base() (parallel.Config, *trace.Multi) {
	mb := 16
	if *quick {
		mb = 8
	}
	base := config(model.GPT3_15B(), 2, 2, 4, mb)
	return base, simulate(base, *seed)
}

// sweepAndCompare evaluates scenarios as one campaign through the public
// Scenario/Sweep API — the base profile is shared, the kernel library and
// fitted model are built once — and validates every ranked prediction
// against a fresh ground-truth simulation of its target.
func sweepAndCompare(title string, scenarios []lumos.Scenario, seedOffset uint64) {
	base, profiled := fig7Base()
	tk := lumos.New()
	sweep, err := tk.EvaluateTraces(context.Background(), base, profiled, scenarios...)
	if err != nil {
		panic(fmt.Sprintf("%s: %v", title, err))
	}
	t := &metrics.Table{Title: title}
	for i, r := range sweep.Results {
		if !r.Feasible() {
			fmt.Printf("# %s: infeasible: %s\n", r.Name, r.Err)
			continue
		}
		logf("%s: world=%d predicted %.1fms (rank %d)", r.Name, r.World, analysis.Millis(r.Iteration), i+1)
		actual := simulate(r.Target, *seed+2000+seedOffset+uint64(i))
		t.Add(metrics.Row{
			Label:    r.Name,
			Actual:   analysis.IterationTime(actual),
			Lumos:    r.Iteration,
			ActualBD: analysis.MultiBreakdown(actual),
			LumosBD:  r.Breakdown,
		})
		runtime.GC()
	}
	fmt.Println(t.String())
	fmt.Println(t.BreakdownString())
}

func fig7a() {
	fmt.Println("=== Figure 7a: scaling data parallelism (baseline 2x2x4) ===")
	dps := []int{8, 16, 32}
	if *quick {
		dps = []int{8}
	}
	var scenarios []lumos.Scenario
	for _, dp := range dps {
		scenarios = append(scenarios, lumos.ScaleDPScenario(dp))
	}
	sweepAndCompare("DP scale-out prediction", scenarios, 0)
}

func fig7b() {
	fmt.Println("=== Figure 7b: scaling pipeline parallelism (baseline 2x2x4) ===")
	pps := []int{4, 8, 16}
	if *quick {
		pps = []int{4}
	}
	var scenarios []lumos.Scenario
	for _, pp := range pps {
		scenarios = append(scenarios, lumos.ScalePPScenario(pp))
	}
	sweepAndCompare("PP scale-out prediction", scenarios, 10)
}

func fig7c() {
	fmt.Println("=== Figure 7c: simultaneous DP and PP scaling (baseline 2x2x4) ===")
	targets := [][2]int{{4, 8}, {8, 8}, {4, 16}} // (PP, DP)
	if *quick {
		targets = [][2]int{{4, 8}}
	}
	var scenarios []lumos.Scenario
	for _, tg := range targets {
		scenarios = append(scenarios, lumos.Scale3DScenario(tg[0], tg[1]))
	}
	sweepAndCompare("DP+PP scale-out prediction", scenarios, 20)
}

// ---------------------------------------------------------------------------
// Figure 8: architecture-change prediction from the 15B baseline.

func fig8() {
	fmt.Println("=== Figure 8: architecture variants (baseline GPT-3 15B 2x2x4) ===")
	variants := []model.Arch{model.GPT3_V1(), model.GPT3_V2(), model.GPT3_V3(), model.GPT3_V4()}
	if *quick {
		variants = variants[:2]
	}
	var scenarios []lumos.Scenario
	for _, v := range variants {
		scenarios = append(scenarios, lumos.ArchScenario(v))
	}
	sweepAndCompare("architecture-change prediction", scenarios, 30)
}

// ---------------------------------------------------------------------------
// Ablations: the design choices DESIGN.md calls out. ablations reports
// whether every on/off pair printed two different iterations.

func ablations() bool {
	fmt.Println("=== Ablations ===")
	cfg := config(model.GPT3_15B(), 4, 2, 2, 8)
	if *quick {
		cfg = config(model.GPT3_15B(), 2, 2, 2, 4)
	}
	profiled := simulate(cfg, *seed)
	actual := simulate(cfg, *seed+1000)
	actualIter := analysis.IterationTime(actual)

	// (1) Inter-stream dependencies: full / compute→comm only / none.
	fmt.Println("-- inter-stream dependency ablation (replay error vs actual) --")
	for _, mode := range []struct {
		name string
		m    execgraph.InterStreamMode
		r    replay.Options
	}{
		{"all (Lumos)", execgraph.InterStreamAll, replay.DefaultOptions()},
		{"compute→comm (dPRO)", execgraph.InterStreamComputeToComm, dpro.ReplayOptions()},
		{"none", execgraph.InterStreamNone, dpro.ReplayOptions()},
	} {
		opts := execgraph.DefaultOptions()
		opts.InterStream = mode.m
		out := replayWith(profiled, opts, mode.r)
		fmt.Printf("%-22s iter %7.1fms err %5.1f%% overlap %5.0fms\n",
			mode.name, analysis.Millis(out.iter), metrics.RelErr(out.iter, actualIter),
			analysis.Millis(out.bd.Overlapped))
	}

	// (2) and (3) replay what-ifs where the options matter (the unchanged
	// profile replays its recorded timeline under either setting) against
	// ground truth with the same change made in the substrate. An on/off
	// pair that prints one iteration shows nothing and fails the run. The
	// CPU gap heuristic binds where CPU-side ordering is on the critical
	// path: every CPU task at twice its duration on a launch-bound model
	// (GPT-3 15B cut to 8 layers of hidden 512), against the mean of three
	// substrate runs with doubled CPU costs.
	gapCfg := config(model.GPT3_15B().WithLayers(8).WithHidden(512, 2048), 2, 2, 2, 8)
	gapProfile := simulate(gapCfg, 7)
	var gapTruth trace.Dur
	for s := uint64(100); s <= 102; s++ {
		gapTruth += truth(gapCfg, s, func(sc *cluster.SimConfig) {
			for _, d := range []*trace.Dur{&sc.OpDispatch, &sc.LaunchDur, &sc.OpEpilogue, &sc.RecordDur, &sc.WaitEventDur, &sc.SyncMinDur} {
				*d *= 2
			}
		}) / 3
	}
	fmt.Printf("-- inter-thread CPU dependency ablation: CPU x2 what-if on a launch-bound model vs ground truth with doubled CPU costs (%.1fms) --\n", analysis.Millis(gapTruth))
	var gapRows, coupleRows [2]string
	for i, on := range []bool{true, false} {
		opts := execgraph.DefaultOptions()
		opts.InterThreadDeps = on
		iter := whatIf(gapProfile, opts, replay.DefaultOptions(), func(g *execgraph.Graph, t replay.Timings) {
			for i := range g.Tasks {
				if g.Tasks[i].Kind == execgraph.TaskCPU {
					t.Dur[i] *= 2
				}
			}
		})
		gapRows[i] = fmt.Sprintf("%7.1fms", analysis.Millis(iter))
		fmt.Printf("gap-heuristic=%-5v iter %s err %5.1f%%\n", on, gapRows[i], metrics.RelErr(iter, gapTruth))
	}
	gemmTruth := truth(cfg, *seed+1000, func(sc *cluster.SimConfig) {
		sc.Oracle = halfGEMM{kernelmodel.NewOracleFabric(sc.Fabric)}
	})
	fmt.Printf("-- cross-rank collective coupling ablation: GEMM x0.5 what-if vs ground truth with half-duration GEMMs (%.1fms) --\n", analysis.Millis(gemmTruth))
	for i, on := range []bool{true, false} {
		r := replay.DefaultOptions()
		r.CoupleCollectives = on
		iter := whatIf(profiled, execgraph.DefaultOptions(), r, func(g *execgraph.Graph, t replay.Timings) {
			analysis.ScaleDurations(g, t, func(tk *execgraph.Task) bool { return tk.Class == trace.KCGEMM }, 0.5)
		})
		coupleRows[i] = fmt.Sprintf("%7.1fms", analysis.Millis(iter))
		fmt.Printf("coupling=%-5v iter %s err %5.1f%%\n", on, coupleRows[i], metrics.RelErr(iter, gemmTruth))
	}
	ok := gapRows[0] != gapRows[1] && coupleRows[0] != coupleRows[1]

	// (4) Kernel pricing for manipulation: the fitted model alone (an empty
	// library, so the fit prices every kernel) vs the measured library
	// with the fit pricing only what the profile lacks.
	fmt.Println("-- kernel model ablation for DP scale-out prediction --")
	base := cfg
	req := manip.ScaleDP(base, 8)
	world := req.Target.Map.WorldSize()
	topo := topology.H100Cluster(world)
	actualT := simulate(req.Target, *seed+3000)
	actualTI := analysis.IterationTime(actualT)
	oracle := kernelmodel.NewOracleFabric(topo)
	fitted, err := kernelmodel.Fit([]*trace.Multi{profiled}, topo, oracle)
	if err != nil {
		panic(err)
	}
	for _, row := range []struct {
		name    string
		profile *trace.Multi
	}{{"fitted only", &trace.Multi{}}, {"library+fit", profiled}} {
		pred, err := manip.PredictGraphWith(req, manip.BuildLibrary(row.profile, topo), fitted, topo)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-12s pred %7.1fms err %5.1f%% kernels measured %d modeled %d\n",
			row.name+":", analysis.Millis(pred.Iteration), metrics.RelErr(pred.Iteration, actualTI),
			pred.LibraryHits, pred.LibraryMisses)
	}

	// (5) Pipeline schedule policy: 1F1B vs GPipe on the same deployment.
	fmt.Println("-- schedule policy comparison (ground truth) --")
	for _, pol := range []parallel.SchedulePolicy{parallel.OneFOneB, parallel.GPipe} {
		c := cfg
		c.Schedule = pol
		tr := simulate(c, *seed)
		fmt.Printf("%-6s iter %7.1fms\n", pol, analysis.Millis(tr.Duration()))
	}
	fmt.Println()
	if !ok {
		fmt.Println("FAIL: an on/off ablation pair printed the same iteration")
	}
	return ok
}

// Command lumos is the toolkit CLI:
//
//	lumos tracegen  -model 15b -tp 2 -pp 2 -dp 4 -mb 8 -seed 42 -out traces/
//	    simulate one training iteration on the cluster substrate and write
//	    per-rank Kineto-style JSON traces
//	lumos replay    -in traces/ [-baseline dpro]
//	    build the execution graph and replay it, printing iteration time and
//	    the execution breakdown
//	lumos breakdown -in traces/ [-per-rank]
//	    print the exposed compute / overlapped / exposed comm / other
//	    decomposition of a collected or simulated trace
//	lumos smutil    -in traces/ -rank 0 -window 1ms
//	    print per-window SM utilization for one rank
//	lumos predict   -in traces/ -model 15b -tp 2 -pp 2 -dp 4 -mb 8 \
//	                [-new-dp N] [-new-pp N] [-new-arch v3]
//	    manipulate the profiled execution into a new configuration and
//	    predict its performance
//	lumos whatif    -in traces/ -class gemm -factor 0.5
//	    estimate the iteration time if all kernels of a class ran at the
//	    given duration factor
//	lumos sweep     -model 15b -tp 2 -pp 2 -dp 4 -mb 8 [-in traces/] \
//	                [-pp-range 2,4,8] [-dp-range 4,8,16] [-arch v1,v2,v3,v4] \
//	                [-schedule 1f1b,interleaved2,zb-h1] \
//	                [-fabric flat,nvl72,spine4] [-degrade 1,0.75,0.5] \
//	                [-whatif] [-top 10] [-workers 0] [-trace out.json] [-metrics] [-v]
//	    profile the base deployment once (or reuse -in traces), then
//	    evaluate a whole what-if campaign — a TP×PP×DP grid, architecture
//	    variants, pipeline schedules, network fabrics and degradation
//	    factors, and kernel counterfactuals — concurrently against shared
//	    calibration, printing results ranked by predicted iteration time
//	lumos plan      -model 15b -tp 2 -pp 2 -dp 2 -mb 8 [-in traces/] \
//	                [-pp-range 1,2,4] [-dp-range 1,2,4] [-mb-range 4,8] \
//	                [-schedule 1f1b,interleaved2,zb-h1] \
//	                [-fabric flat,nvl72] [-degrade 1,0.5] \
//	                [-strategy auto|exhaustive|bnb] \
//	                [-budget 0] [-gpu-mem-gib 80] [-zero 0|1|2] [-top 10] \
//	                [-trace search.json] [-explain explain.json] [-metrics]
//	    exact deployment search: expand the parallelism × microbatch ×
//	    schedule × fabric space lazily, rule out configurations that would
//	    OOM with the analytic memory model, bound the rest by roofline cost
//	    with schedule-specific bubble terms, simulate every feasible point
//	    (exhaustive) or only those whose bound can beat the best simulated
//	    time (bnb; auto picks exhaustive up to 24 points, bnb beyond), and
//	    print the non-dominated simulated points over (iteration time,
//	    GPUs, peak memory); -explain additionally writes a
//	    structured report of every simulated point (analytic bound vs
//	    simulated time) and every pruned subtree
//	lumos trace top [-n 15] <trace.json>
//	    analyze a Chrome trace-event export (from -trace or lumosd
//	    GET /v1/traces/{id}): print the top-N spans by self-time with
//	    per-category rollups
//
// All subcommands honor Ctrl-C: the context is canceled and in-flight
// sweeps stop.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lumos"
	"lumos/internal/analysis"
	"lumos/internal/server"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lumos <tracegen|replay|breakdown|smutil|predict|whatif|sweep|plan|trace> [flags]")
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "tracegen":
		err = cmdTracegen(ctx, args)
	case "replay":
		err = cmdReplay(ctx, args)
	case "breakdown":
		err = cmdBreakdown(args)
	case "smutil":
		err = cmdSMUtil(args)
	case "predict":
		err = cmdPredict(ctx, args)
	case "whatif":
		err = cmdWhatIf(ctx, args)
	case "sweep":
		err = cmdSweep(ctx, os.Stdout, args)
	case "plan":
		err = cmdPlan(ctx, os.Stdout, args)
	case "trace":
		err = cmdTrace(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "lumos %s: %v\n", cmd, err)
		os.Exit(1)
	}
}

// deployFlags registers the deployment flag set shared by tracegen/predict/sweep.
func deployFlags(fs *flag.FlagSet) (mdl *string, tp, pp, dp, mb *int, seed *uint64) {
	mdl = fs.String("model", "15b", "architecture preset")
	tp = fs.Int("tp", 2, "tensor parallelism")
	pp = fs.Int("pp", 2, "pipeline parallelism")
	dp = fs.Int("dp", 4, "data parallelism")
	mb = fs.Int("mb", 8, "microbatches per rank")
	seed = fs.Uint64("seed", 42, "simulation seed")
	return
}

func buildConfig(mdl string, tp, pp, dp, mb int) (lumos.Config, error) {
	arch, err := lumos.ArchPreset(mdl)
	if err != nil {
		return lumos.Config{}, err
	}
	cfg, err := lumos.DeploymentConfig(arch, tp, pp, dp)
	if err != nil {
		return lumos.Config{}, err
	}
	cfg.Microbatches = mb
	return cfg, nil
}

func cmdTracegen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ExitOnError)
	mdl, tp, pp, dp, mb, seed := deployFlags(fs)
	out := fs.String("out", "traces", "output directory for rank_<N>.json")
	fs.Parse(args)

	cfg, err := buildConfig(*mdl, *tp, *pp, *dp, *mb)
	if err != nil {
		return err
	}
	tk := lumos.New()
	t0 := time.Now()
	traces, err := tk.Profile(ctx, cfg, *seed)
	if err != nil {
		return err
	}
	if err := lumos.SaveTraces(traces, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %d rank traces (%d events, iteration %.1fms) to %s in %v\n",
		traces.NumRanks(), traces.Events(), analysis.Millis(lumos.IterationTime(traces)),
		*out, time.Since(t0).Round(time.Millisecond))
	return nil
}

func cmdReplay(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "traces", "trace directory")
	baseline := fs.String("baseline", "", "also replay with a baseline: dpro")
	fs.Parse(args)

	traces, err := lumos.LoadTraces(*in)
	if err != nil {
		return err
	}
	tk := lumos.New()
	rep, err := tk.ReplayTraces(ctx, traces)
	if err != nil {
		return err
	}
	fmt.Printf("recorded: %.1fms\n", analysis.Millis(lumos.IterationTime(traces)))
	fmt.Printf("lumos:    %.1fms  %v\n", analysis.Millis(rep.Iteration), rep.Breakdown)
	if *baseline == "dpro" {
		dp, err := tk.ReplayDPRO(ctx, traces)
		if err != nil {
			return err
		}
		fmt.Printf("dpro:     %.1fms  %v\n", analysis.Millis(dp.Iteration), dp.Breakdown)
	}
	return nil
}

func cmdBreakdown(args []string) error {
	fs := flag.NewFlagSet("breakdown", flag.ExitOnError)
	in := fs.String("in", "traces", "trace directory")
	perRank := fs.Bool("per-rank", false, "print each rank separately")
	fs.Parse(args)

	traces, err := lumos.LoadTraces(*in)
	if err != nil {
		return err
	}
	if *perRank {
		for _, t := range traces.Ranks {
			fmt.Printf("rank %3d: %v\n", t.Rank, lumos.RankBreakdown(t))
		}
	}
	fmt.Printf("average: %v (iteration %.1fms)\n",
		lumos.MultiBreakdown(traces), analysis.Millis(lumos.IterationTime(traces)))
	return nil
}

func cmdSMUtil(args []string) error {
	fs := flag.NewFlagSet("smutil", flag.ExitOnError)
	in := fs.String("in", "traces", "trace directory")
	rank := fs.Int("rank", 0, "rank to analyze")
	window := fs.Duration("window", time.Millisecond, "window size")
	fs.Parse(args)

	traces, err := lumos.LoadTraces(*in)
	if err != nil {
		return err
	}
	if *rank < 0 || *rank >= traces.NumRanks() {
		return fmt.Errorf("rank %d out of range [0,%d)", *rank, traces.NumRanks())
	}
	u := lumos.SMUtilization(traces.Ranks[*rank], window.Nanoseconds())
	for i, v := range u {
		fmt.Printf("%d %.4f\n", i, v)
	}
	return nil
}

func cmdPredict(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	mdl, tp, pp, dp, mb, _ := deployFlags(fs)
	in := fs.String("in", "traces", "profiled trace directory (collected under the base config)")
	newDP := fs.Int("new-dp", 0, "target data parallelism (0 = unchanged)")
	newPP := fs.Int("new-pp", 0, "target pipeline parallelism (0 = unchanged)")
	newArch := fs.String("new-arch", "", "target architecture preset (empty = unchanged)")
	fs.Parse(args)

	base, err := buildConfig(*mdl, *tp, *pp, *dp, *mb)
	if err != nil {
		return err
	}
	traces, err := loadProfile(*in, base)
	if err != nil {
		return err
	}
	target := base
	if *newPP > 0 {
		target.Map.PP = *newPP
	}
	if *newDP > 0 {
		target.Map.DP = *newDP
	}
	if *newArch != "" {
		arch, err := lumos.ArchPreset(*newArch)
		if err != nil {
			return err
		}
		target.Arch = arch
	}
	sweep, err := lumos.New().EvaluateTraces(ctx, base, traces,
		lumos.DeployScenario("target", func(lumos.Config) lumos.Config { return target }))
	if err != nil {
		return err
	}
	pred := sweep.Results[0]
	if !pred.Feasible() {
		return errors.New(pred.Err)
	}
	fmt.Printf("base:      %s %dx%dx%d — recorded %.1fms\n", base.Arch.Name,
		base.Map.TP, base.Map.PP, base.Map.DP, analysis.Millis(lumos.IterationTime(traces)))
	fmt.Printf("target:    %s %dx%dx%d — predicted %.1fms\n", target.Arch.Name,
		target.Map.TP, target.Map.PP, target.Map.DP, analysis.Millis(pred.Iteration))
	fmt.Printf("breakdown: %v\n", pred.Breakdown)
	fmt.Printf("kernels:   %d from measurements, %d from the fitted model\n",
		pred.LibraryHits, pred.LibraryMisses)
	return nil
}

// loadProfile reads the -in traces of a base deployment and checks that
// they profile it: one trace per rank of its world.
func loadProfile(dir string, base lumos.Config) (*lumos.Multi, error) {
	traces, err := lumos.LoadTraces(dir)
	if err != nil {
		return nil, err
	}
	if err := lumos.CheckProfile(base, traces); err != nil {
		return nil, fmt.Errorf("%s: %w", dir, err)
	}
	return traces, nil
}

func cmdWhatIf(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ExitOnError)
	in := fs.String("in", "traces", "trace directory")
	className := fs.String("class", "gemm", "kernel class to scale ("+strings.Join(kernelClassNames(), "|")+")")
	factor := fs.Float64("factor", 0.5, "duration multiplier for matched kernels")
	fusion := fs.Bool("fusion", false, "estimate elementwise/norm operator fusion instead of class scaling")
	fs.Parse(args)

	class, err := kernelClassByName(*className)
	if err != nil && !*fusion {
		return err
	}
	traces, err := lumos.LoadTraces(*in)
	if err != nil {
		return err
	}
	tk := lumos.New()
	g, err := tk.BuildGraph(ctx, traces)
	if err != nil {
		return err
	}
	if *fusion {
		rep, err := tk.WhatIfFusion(ctx, g, lumos.DefaultFusionOpts())
		if err != nil {
			return err
		}
		fmt.Printf("baseline: %.1fms\n", analysis.Millis(rep.Baseline))
		fmt.Printf("fused:    %.1fms (%d kernel runs merged, %d kernels removed, %.3fx speedup)\n",
			analysis.Millis(rep.Fused), rep.FusedGroups, rep.KernelsRemoved, rep.Speedup())
		return nil
	}
	baseRep, err := tk.Replay(ctx, g)
	if err != nil {
		return err
	}
	match := func(t *lumos.Task) bool { return t.Class == class }
	scaled, err := tk.WhatIfScale(ctx, g, match, *factor)
	if err != nil {
		return err
	}
	base := baseRep.Iteration
	fmt.Printf("baseline: %.1fms\n", analysis.Millis(base))
	fmt.Printf("what-if (%s x %.2f): %.1fms (%.1f%% change)\n",
		class, *factor, analysis.Millis(scaled),
		100*(float64(scaled)-float64(base))/float64(base))
	return nil
}

// kernelClassByName resolves a -class name against the kernel-class
// names, so a misspelled class fails with the menu instead of matching no
// kernel.
func kernelClassByName(name string) (lumos.KernelClass, error) {
	want := strings.ToLower(strings.TrimSpace(name))
	for c := lumos.KCGEMM; c <= lumos.KCComm; c++ {
		if c.String() == want {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown kernel class %q (valid: %s)", name, strings.Join(kernelClassNames(), "|"))
}

// kernelClassNames lists the classes -class accepts.
func kernelClassNames() []string {
	var names []string
	for c := lumos.KCGEMM; c <= lumos.KCComm; c++ {
		names = append(names, c.String())
	}
	return names
}

// splitList splits a comma-separated list flag into trimmed elements; a
// blank flag is an empty list.
func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

// parseFloatList parses "1,0.75,0.5" into []float64.
func parseFloatList(s string) ([]float64, error) {
	var out []float64
	for _, part := range splitList(s) {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad list element %q: %w", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseIntList parses "2,4,8" into []int.
func parseIntList(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad list element %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}

// cmdSweep fills a lumosd SweepRequest from its flags, so the CLI and the
// planning service build the same campaign from the same fields.
func cmdSweep(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	mdl, tp, pp, dp, mb, seed := deployFlags(fs)
	in := fs.String("in", "", "profiled trace directory of the base config (empty = profile now)")
	tpRange := fs.String("tp-range", "", "comma-separated TP grid (default: base TP)")
	ppRange := fs.String("pp-range", "", "comma-separated PP grid")
	dpRange := fs.String("dp-range", "", "comma-separated DP grid")
	archList := fs.String("arch", "", "comma-separated architecture variants (e.g. v1,v2,v3,v4)")
	schedList := fs.String("schedule", "", "comma-separated pipeline schedules to re-predict the base under (1f1b|gpipe|interleaved[V]|zb-h1)")
	fabricList := fs.String("fabric", "", "comma-separated fabric presets to re-price the base on (flat|nvl72|spine[N])")
	degradeList := fs.String("degrade", "", "comma-separated network bandwidth factors for degraded-network what-ifs, applied to every tier beyond the NVLink domain (e.g. 1,0.75,0.5)")
	whatIf := fs.Bool("whatif", false, "include kernel counterfactuals (2x GEMM/attention/comm, operator fusion)")
	top := fs.Int("top", 10, "print only the K best-ranked scenarios (0 = all)")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = auto)")
	cacheDir := fs.String("cache-dir", "", "disk-backed scenario cache shared across runs (empty = in-memory only)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of the campaign (open in Perfetto / chrome://tracing)")
	showMetrics := fs.Bool("metrics", false, "print the full metrics snapshot after the sweep")
	verbose := fs.Bool("v", false, "print the replay-engine and scenario-cache counter summary")
	fs.Parse(args)

	base, err := buildConfig(*mdl, *tp, *pp, *dp, *mb)
	if err != nil {
		return err
	}
	req := server.SweepRequest{
		Archs:     splitList(*archList),
		Schedules: splitList(*schedList),
		Fabrics:   splitList(*fabricList),
		WhatIf:    *whatIf,
		Top:       *top,
	}
	if req.TPRange, err = parseIntList(*tpRange); err != nil {
		return err
	}
	if req.PPRange, err = parseIntList(*ppRange); err != nil {
		return err
	}
	if req.DPRange, err = parseIntList(*dpRange); err != nil {
		return err
	}
	if req.Degrade, err = parseFloatList(*degradeList); err != nil {
		return err
	}
	scenarios, err := req.Scenarios(base)
	if err != nil {
		return err
	}

	tracer, ctx := traceContext(ctx, *traceOut)
	tk := lumos.New(toolkitOptions(*workers, *seed, *cacheDir)...)
	t0 := time.Now()
	var st *lumos.BaseState
	if *in != "" {
		traces, err := loadProfile(*in, base)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "base %s %dx%dx%d: %d profiled ranks loaded from %s\n", base.Arch.Name,
			base.Map.TP, base.Map.PP, base.Map.DP, traces.NumRanks(), *in)
		st, err = tk.PrepareTraces(ctx, base, traces)
		if err != nil {
			return sweepErr(err)
		}
	} else {
		fmt.Fprintf(w, "base %s %dx%dx%d: profiling %d GPUs (seed %d)...\n", base.Arch.Name,
			base.Map.TP, base.Map.PP, base.Map.DP, base.Map.WorldSize(), *seed)
		st, err = tk.Prepare(ctx, base, *seed)
		if err != nil {
			return sweepErr(err)
		}
	}
	sweep, err := tk.EvaluateState(ctx, st, scenarios...)
	if err != nil {
		return sweepErr(err)
	}

	fmt.Fprintf(w, "base iteration %.1fms; %d scenarios evaluated in %v (profile-once, shared calibration)\n\n",
		analysis.Millis(sweep.Base.Iteration), len(sweep.Results), time.Since(t0).Round(time.Millisecond))

	fmt.Fprintf(w, "%4s  %-24s %-13s %6s %12s %9s %9s  %s\n",
		"rank", "scenario", "kind", "gpus", "pred/iter", "speedup", "Δcost", "notes")
	rank := 1
	for _, r := range req.Listed(sweep) {
		if !r.Feasible() {
			fmt.Fprintf(w, "%4s  %-24s %-13s %6s %12s %9s %9s  infeasible: %s\n",
				"-", clip(r.Name, 24), r.Kind, "-", "-", "-", "-", r.Err)
			continue
		}
		notes := r.Detail
		if notes == "" && r.LibraryHits+r.LibraryMisses > 0 {
			notes = fmt.Sprintf("%d kernels measured, %d modeled", r.LibraryHits, r.LibraryMisses)
		}
		fmt.Fprintf(w, "%4d  %-24s %-13s %6d %10.1fms %8.2fx %+8.1f%%  %s\n",
			rank, clip(r.Name, 24), r.Kind, r.World, analysis.Millis(r.Iteration),
			r.Speedup, 100*r.CostDelta, notes)
		rank++
	}
	if best, ok := sweep.Best(); ok {
		fmt.Fprintf(w, "\nbest: %s — %.1fms/iter (%.2fx vs base)\n",
			best.Name, analysis.Millis(best.Iteration), best.Speedup)
	}
	if *verbose {
		printCounterSummary(w, st)
	}
	printCacheStats(w, *cacheDir, st)
	if *showMetrics {
		printMetricsTable(w, tk, st)
	}
	return writeTrace(w, tracer, *traceOut)
}

// traceContext carries a fresh tracer in ctx when -trace is set.
func traceContext(ctx context.Context, path string) (*lumos.Tracer, context.Context) {
	if path == "" {
		return nil, ctx
	}
	tr := lumos.NewTracer()
	return tr, lumos.ContextWithTracer(ctx, tr)
}

// writeTrace exports the recorded spans as Chrome trace-event JSON.
func writeTrace(w io.Writer, tr *lumos.Tracer, path string) error {
	if tr == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.Export(f); err != nil {
		f.Close()
		return fmt.Errorf("exporting trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\ntrace: wrote %d events to %s (open in ui.perfetto.dev or chrome://tracing)\n",
		len(tr.Events()), path)
	return nil
}

// printCounterSummary reports the replay-engine and two-level scenario
// cache counters for a campaign state — the same numbers `lumos plan`
// always prints, available on sweeps under -v.
func printCounterSummary(w io.Writer, st *lumos.BaseState) {
	cs := st.CacheStats()
	fmt.Fprintf(w, "\nreplay engine: %d programs compiled, %d runs\n", cs.CompiledPrograms, cs.CompiledRuns)
	fmt.Fprintf(w, "scenario cache: %d memo hits (%d entries), %d disk hits, %d disk misses\n",
		cs.MemoHits, cs.MemoEntries, cs.DiskHits, cs.DiskMisses)
}

// printMetricsTable registers every toolkit and campaign-state collector
// plus the Go-runtime collectors in a fresh registry and prints the
// snapshot — the same series a lumosd /metrics scrape would expose for
// this run. Runtime registration happens here, at snapshot assembly, so
// CLI output includes the runtime gauges without a server running.
func printMetricsTable(w io.Writer, tk *lumos.Toolkit, st *lumos.BaseState) {
	reg := lumos.NewRegistry()
	tk.RegisterMetrics(reg)
	st.RegisterMetrics(reg)
	lumos.RegisterRuntime(reg)
	snap := reg.Snapshot()
	fmt.Fprintf(w, "\n%-44s %-9s %s\n", "metric", "kind", "value")
	for _, s := range snap.Samples {
		name := s.Name
		if s.Labels != "" {
			name += "{" + s.Labels + "}"
		}
		if s.Kind == lumos.MetricHistogram {
			fmt.Fprintf(w, "%-44s %-9s count=%d sum=%g\n", name, s.Kind, s.Count, s.Sum)
			continue
		}
		fmt.Fprintf(w, "%-44s %-9s %g\n", name, s.Kind, s.Value)
	}
}

// toolkitOptions assembles the common sweep/plan toolkit options,
// including the disk-backed scenario cache when -cache-dir is set.
func toolkitOptions(workers int, seed uint64, cacheDir string) []lumos.Option {
	opts := []lumos.Option{lumos.WithConcurrency(workers), lumos.WithSeed(seed)}
	if cacheDir != "" {
		opts = append(opts, lumos.WithDiskCache(cacheDir))
	}
	return opts
}

// printCacheStats reports two-level cache activity when a disk cache is
// configured, so warm re-runs explain where their speed came from.
func printCacheStats(w io.Writer, cacheDir string, st *lumos.BaseState) {
	if cacheDir == "" {
		return
	}
	cs := st.CacheStats()
	fmt.Fprintf(w, "\ncache: %d memo hits, %d disk hits, %d disk misses (store: %d entries, %.1f MiB, %d puts, %d discards)\n",
		cs.MemoHits, cs.DiskHits, cs.DiskMisses,
		cs.Disk.Entries, float64(cs.Disk.Bytes)/(1<<20), cs.Disk.Puts, cs.Disk.Discards)
}

// cmdPlan fills a lumosd PlanRequest from its flags, so the CLI and the
// planning service search the same space with the same options.
func cmdPlan(ctx context.Context, w io.Writer, args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	mdl, tp, pp, dp, mb, seed := deployFlags(fs)
	in := fs.String("in", "", "profiled trace directory of the base config (empty = profile now)")
	tpRange := fs.String("tp-range", "", "comma-separated TP grid (default: base TP; other TPs are out of manipulation scope)")
	ppRange := fs.String("pp-range", "", "comma-separated PP grid (default: base PP)")
	dpRange := fs.String("dp-range", "", "comma-separated DP grid (default: base DP)")
	mbRange := fs.String("mb-range", "", "comma-separated microbatch grid (default: base -mb)")
	schedList := fs.String("schedule", "", "comma-separated pipeline schedules to search over (1f1b|gpipe|interleaved[V]|zb-h1; default: the base schedule)")
	fabricList := fs.String("fabric", "", "comma-separated fabric presets to search over (flat|nvl72|spine[N]; default: the profiled fabric)")
	degradeList := fs.String("degrade", "", "comma-separated network bandwidth factors beyond the NVLink domain (e.g. 1,0.75,0.5)")
	strategy := fs.String("strategy", "auto", "search strategy: auto|exhaustive|bnb (auto: exhaustive up to 24 points, bnb beyond)")
	budget := fs.Int("budget", 0, "max points promoted to full simulation (0 = no cap)")
	gpuMem := fs.Float64("gpu-mem-gib", 80, "device memory capacity in GiB for the feasibility model (0 = 80)")
	zero := fs.Int("zero", 0, "ZeRO sharding stage for the memory model: 0 (none), 1 (optimizer), 2 (+gradients)")
	top := fs.Int("top", 10, "print only the K best dominated points (0 = all)")
	workers := fs.Int("workers", 0, "sweep worker pool size (0 = auto)")
	cacheDir := fs.String("cache-dir", "", "disk-backed scenario cache shared across runs (empty = in-memory only)")
	traceOut := fs.String("trace", "", "write a Chrome trace-event JSON of the search (pipeline spans + per-round search events; open in Perfetto)")
	explainOut := fs.String("explain", "", "write the planner explain report as JSON (per simulated point: bound vs actual; per pruned subtree: head, bound, incumbent)")
	showMetrics := fs.Bool("metrics", false, "print the full metrics snapshot after the search")
	fs.Parse(args)

	base, err := buildConfig(*mdl, *tp, *pp, *dp, *mb)
	if err != nil {
		return err
	}
	req := server.PlanRequest{
		Schedules: splitList(*schedList),
		Fabrics:   splitList(*fabricList),
		Strategy:  *strategy,
		Budget:    *budget,
		GPUMemGiB: *gpuMem,
		ZeRO:      *zero,
		Top:       *top,
	}
	if req.TPRange, err = parseIntList(*tpRange); err != nil {
		return err
	}
	if req.PPRange, err = parseIntList(*ppRange); err != nil {
		return err
	}
	if req.DPRange, err = parseIntList(*dpRange); err != nil {
		return err
	}
	if req.MBRange, err = parseIntList(*mbRange); err != nil {
		return err
	}
	if req.Degrade, err = parseFloatList(*degradeList); err != nil {
		return err
	}
	space, err := req.Space(base)
	if err != nil {
		return err
	}
	opts, err := req.Options()
	if err != nil {
		return err
	}
	var explain *lumos.PlanExplain
	if *explainOut != "" {
		explain = &lumos.PlanExplain{}
		opts = append(opts, lumos.WithPlanExplain(explain))
	}

	tracer, ctx := traceContext(ctx, *traceOut)
	tk := lumos.New(toolkitOptions(*workers, *seed, *cacheDir)...)
	t0 := time.Now()
	var st *lumos.BaseState
	if *in != "" {
		traces, err := loadProfile(*in, base)
		if err != nil {
			return err
		}
		st, err = tk.PrepareTraces(ctx, base, traces)
		if err != nil {
			return sweepErr(err)
		}
	} else {
		fmt.Fprintf(w, "base %s %dx%dx%d: profiling %d GPUs (seed %d)...\n", base.Arch.Name,
			base.Map.TP, base.Map.PP, base.Map.DP, base.Map.WorldSize(), *seed)
		st, err = tk.Prepare(ctx, base, *seed)
		if err != nil {
			return sweepErr(err)
		}
	}
	res, err := tk.PlanState(ctx, st, space, opts...)
	if err != nil {
		return sweepErr(err)
	}

	s := res.Stats
	fmt.Fprintf(w, "base iteration %.1fms; strategy=%s space=%d feasible=%d mem-rejected=%d schedule-rejected=%d scope-rejected=%d\n",
		analysis.Millis(st.Iteration), res.Strategy, s.SpaceSize, s.Feasible, s.MemRejected, s.ScheduleRejected, s.ScopeRejected)
	if s.BoundPruned > 0 || s.DominatedPruned > 0 {
		fmt.Fprintf(w, "pruned without simulating: %d by bound, %d dominated\n", s.BoundPruned, s.DominatedPruned)
	}
	fmt.Fprintf(w, "simulated %d points (%d re-timed a shared graph) in %d rounds in %v\n",
		s.Simulated, s.SharedStructure, s.Rounds, time.Since(t0).Round(time.Millisecond))
	cs := st.CacheStats()
	fmt.Fprintf(w, "replay engine: %d programs compiled, %d runs\n\n", cs.CompiledPrograms, cs.CompiledRuns)

	// Keys print whole (a degraded point differs from its undegraded twin
	// only in its suffix), in a column at least 28 wide and as wide as the
	// longest key.
	dominated := req.ListedDominated(res)
	width := 28
	for _, e := range slices.Concat(res.Frontier, dominated) {
		width = max(width, len(e.Point.Key()))
	}
	for _, c := range res.Infeasible {
		width = max(width, len(c.Point.Key()))
	}
	printPlanPoint := func(rank int, e lumos.PlanEvaluated) {
		fmt.Fprintf(w, "%4d  %-*s %6d %10.1fms %8.2fx %7.1fGiB  %10.1fms\n",
			rank, width, e.Point.Key(), e.Point.World(), analysis.Millis(e.Iteration),
			server.PlanSpeedup(st, e), e.Mem.GiB(), analysis.Millis(e.Bound))
	}
	fmt.Fprintln(w, "Pareto frontier (iteration time × GPU count × peak memory):")
	printPlanHeader(w, width)
	for i, e := range res.Frontier {
		printPlanPoint(i+1, e)
	}
	if len(dominated) > 0 {
		fmt.Fprintf(w, "\ndominated (%d total, ranked):\n", len(res.Dominated))
		printPlanHeader(w, width)
		for i, e := range dominated {
			printPlanPoint(len(res.Frontier)+i+1, e)
		}
	}
	if len(res.Infeasible) > 0 {
		// The retained list mixes analytic rejections with points that were
		// promoted but failed in simulation; each entry carries its reason.
		fmt.Fprintf(w, "\ninfeasible (%d mem-rejected, %d schedule-rejected, %d scope-rejected; %d retained with reasons):\n",
			s.MemRejected, s.ScheduleRejected, s.ScopeRejected, len(res.Infeasible))
		for _, c := range res.Infeasible {
			fmt.Fprintf(w, "  %-*s %s\n", width, c.Point.Key(), c.Infeasible)
		}
	}
	if best, ok := res.Best(); ok {
		fmt.Fprintf(w, "\nbest: %s — %.1fms/iter on %d GPUs, %s\n",
			best.Point.Key(), analysis.Millis(best.Iteration), best.Point.World(), best.Mem)
	}
	printCacheStats(w, *cacheDir, st)
	if explain != nil {
		if err := writeExplain(w, explain, *explainOut); err != nil {
			return err
		}
	}
	if *showMetrics {
		printMetricsTable(w, tk, st)
	}
	return writeTrace(w, tracer, *traceOut)
}

// writeExplain dumps the planner explain report as indented JSON.
func writeExplain(w io.Writer, e *lumos.PlanExplain, path string) error {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding explain report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "explain: wrote %d simulated + %d pruned-subtree records to %s\n",
		e.SimulatedCount(), len(e.Pruned), path)
	return nil
}

func printPlanHeader(w io.Writer, width int) {
	fmt.Fprintf(w, "%4s  %-*s %6s %12s %9s %10s  %12s\n",
		"rank", width, "point", "gpus", "pred/iter", "speedup", "mem", "bound")
}

// cmdTrace dispatches the trace-analysis subcommands; "top" is the only
// one today.
func cmdTrace(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: lumos trace top [-n 15] <trace.json>")
	}
	sub, rest := args[0], args[1:]
	if sub != "top" {
		return fmt.Errorf("unknown trace subcommand %q (want top)", sub)
	}
	fs := flag.NewFlagSet("trace top", flag.ExitOnError)
	topN := fs.Int("n", 15, "print the top N spans by self-time")
	fs.Parse(rest)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: lumos trace top [-n 15] <trace.json>")
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := lumos.ParseTraceEvents(data)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return traceTop(events, *topN)
}

// spanStat aggregates one (category, name) span kind across a trace.
type spanStat struct {
	cat, name string
	selfUs    float64
	totalUs   float64
	count     int
}

// traceTop prints the top-N span kinds by self-time (duration minus the
// time spent in child spans on the same timeline), plus per-category
// rollups. Self-time is what distinguishes "where the walltime actually
// went" from "which span encloses everything".
func traceTop(events []lumos.TraceEvent, topN int) error {
	type span struct {
		e     lumos.TraceEvent
		child float64 // child span time nested inside this one, microseconds
	}
	// Complete spans ("X") grouped per timeline: children nest within
	// parents only on the same (pid, tid) track.
	byTrack := map[[2]int][]span{}
	total := 0
	for _, e := range events {
		if e.Ph != "X" {
			continue
		}
		k := [2]int{e.Pid, e.Tid}
		byTrack[k] = append(byTrack[k], span{e: e})
		total++
	}
	if total == 0 {
		return fmt.Errorf("no complete spans (ph=X) in trace")
	}

	stats := map[string]*spanStat{}
	for _, spans := range byTrack {
		// Sort by start time, longest-first on ties so a parent precedes
		// the children sharing its start timestamp.
		sort.Slice(spans, func(i, j int) bool {
			if spans[i].e.Ts != spans[j].e.Ts {
				return spans[i].e.Ts < spans[j].e.Ts
			}
			return spans[i].e.Dur > spans[j].e.Dur
		})
		// Containment sweep: a stack of currently open spans; each span's
		// duration is charged to the nearest enclosing span as child time.
		var stack []int
		for i := range spans {
			s := &spans[i]
			for len(stack) > 0 {
				top := &spans[stack[len(stack)-1]]
				if s.e.Ts < top.e.Ts+top.e.Dur {
					break
				}
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				spans[stack[len(stack)-1]].child += s.e.Dur
			}
			stack = append(stack, i)
		}
		for i := range spans {
			s := &spans[i]
			key := s.e.Cat + "/" + s.e.Name
			st := stats[key]
			if st == nil {
				st = &spanStat{cat: s.e.Cat, name: s.e.Name}
				stats[key] = st
			}
			self := s.e.Dur - s.child
			if self < 0 {
				self = 0
			}
			st.selfUs += self
			st.totalUs += s.e.Dur
			st.count++
		}
	}

	ranked := make([]*spanStat, 0, len(stats))
	var sumSelf float64
	for _, st := range stats {
		ranked = append(ranked, st)
		sumSelf += st.selfUs
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].selfUs != ranked[j].selfUs {
			return ranked[i].selfUs > ranked[j].selfUs
		}
		return ranked[i].cat+"/"+ranked[i].name < ranked[j].cat+"/"+ranked[j].name
	})
	if topN <= 0 || topN > len(ranked) {
		topN = len(ranked)
	}

	fmt.Printf("%d spans, %d kinds, %.1fms total self-time\n\n", total, len(ranked), sumSelf/1e3)
	fmt.Printf("%4s  %-36s %6s %12s %12s %7s\n", "rank", "span", "count", "self", "total", "self%")
	for i, st := range ranked[:topN] {
		fmt.Printf("%4d  %-36s %6d %10.2fms %10.2fms %6.1f%%\n",
			i+1, clip(st.cat+"/"+st.name, 36), st.count, st.selfUs/1e3, st.totalUs/1e3,
			100*st.selfUs/sumSelf)
	}

	// Category rollups over every kind, not just the printed top-N.
	cats := map[string]*spanStat{}
	for _, st := range stats {
		c := cats[st.cat]
		if c == nil {
			c = &spanStat{cat: st.cat}
			cats[st.cat] = c
		}
		c.selfUs += st.selfUs
		c.count += st.count
	}
	rolled := make([]*spanStat, 0, len(cats))
	for _, c := range cats {
		rolled = append(rolled, c)
	}
	sort.Slice(rolled, func(i, j int) bool {
		if rolled[i].selfUs != rolled[j].selfUs {
			return rolled[i].selfUs > rolled[j].selfUs
		}
		return rolled[i].cat < rolled[j].cat
	})
	fmt.Printf("\n%-20s %6s %12s %7s\n", "category", "count", "self", "self%")
	for _, c := range rolled {
		fmt.Printf("%-20s %6d %10.2fms %6.1f%%\n", c.cat, c.count, c.selfUs/1e3, 100*c.selfUs/sumSelf)
	}
	return nil
}

func sweepErr(err error) error {
	if errors.Is(err, context.Canceled) {
		return fmt.Errorf("sweep canceled")
	}
	return err
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

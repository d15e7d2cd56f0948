// Command lumosbench is the repository's end-to-end benchmark. It generates
// a fig7 profile from a seed, sets a workload up several times, drives it
// in a closed loop for a fixed time, checks every answer, measures answer
// quality against ground truth, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer split derived from the program's spans) as
// one JSON line at the end of standard output.
//
//	bash benchmark/run.sh --workload serve-plan --seed 3 --seconds 25 --trace 0
//
// Workloads: plan-cold (a fresh campaign and plan per op, in process),
// sweep-whatif (37-scenario what-if campaigns on one long-lived campaign,
// in process) and serve-plan (branch-and-bound plans POSTed to a lumosd
// child by two clients). See README.md for the metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lumos"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload shares: the run's seed, the generated
// profile and where to put files.
type env struct {
	seed       uint64
	cfg        lumos.Config
	profileDir string
	profileMiB float64
	lumosd     string
	logDir     string
}

// workload is one way of driving the program.
type workload interface {
	// clients is the closed-loop client count.
	clients() int
	// setup builds what the timed phase needs and answers question 0 as a
	// warm-up; tr, when non-nil, records the benchmark's and program's
	// spans. The caller times it.
	setup(ctx context.Context, tr *lumos.Tracer) error
	// teardown releases what setup built.
	teardown()
	// op answers question k, timing only the program call; tr is nil for
	// untraced ops.
	op(ctx context.Context, k int, tr *lumos.Tracer) opResult
	// usage samples the program process's peak RSS (MiB), cumulative heap
	// allocation (bytes) and GC cycles.
	usage() (usage, error)
	// accuracy measures prediction and replay error on the fixed accuracy
	// panel, after the timed phase.
	accuracy(ctx context.Context) (predErrPct, replayErrPct float64, err error)
	// setupLayers fills the per-layer figures only set-up exercises.
	setupLayers(ctx context.Context, t *layerTotals) error
	// finishLayers adds workload-specific per-layer figures measured over
	// the traced timed phase (before and after are usage samples).
	finishLayers(t *layerTotals, before, after usage, ops int) error
}

// usage is a sample of the program process's resource counters.
type usage struct {
	peakMiB    float64
	allocBytes float64
	gcCycles   float64
	// reqSum/reqCount are lumosd's plan latency histogram totals.
	reqSum, reqCount float64
}

// opResult is one answered question.
type opResult struct {
	wall  time.Duration
	err   error
	trace *opTrace
	// inverted reports a serve-plan answer whose best point is a
	// degraded-bandwidth twin predicted faster than the same point at full
	// bandwidth; judged is set when the answer could be checked for it.
	inverted, judged bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "gen" {
		if err := genMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "lumosbench gen:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lumosbench:", err)
		os.Exit(1)
	}
}

// genMain profiles the fig7 base on the simulated substrate and writes it
// as per-rank Kineto JSON. It runs in a child process so its memory never
// counts against an in-process workload's peak RSS.
func genMain(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("out", "", "output directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return errors.New("-out is required")
	}
	m, err := lumos.New().Profile(context.Background(), baseConfig(), profileSeed)
	if err != nil {
		return fmt.Errorf("profiling the base: %w", err)
	}
	return lumos.SaveTraces(m, *out)
}

func run(args []string) error {
	fs := flag.NewFlagSet("lumosbench", flag.ContinueOnError)
	name := fs.String("workload", "", "plan-cold | serve-plan | sweep-whatif")
	seed := fs.Uint64("seed", 1, "workload seed: every factor an op draws derives from it")
	seconds := fs.Float64("seconds", 30, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting the per-layer split")
	root := fs.String("root", ".", "repository root (for the source digest)")
	lumosd := fs.String("lumosd", "", "lumosd binary built from the tree (serve-plan)")
	work := fs.String("work", ".bench_build/work", "scratch directory for inputs and results")
	if err := fs.Parse(args); err != nil {
		return err
	}
	traced := *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rec := newHostRecord(*name, *seed, traced, *root)
	rec.RefBeforeS = refLoop()

	runDir := filepath.Join(*work, fmt.Sprintf("%s-s%d-p%d", *name, *seed, os.Getpid()))
	defer os.RemoveAll(runDir)
	e := &env{
		seed:       *seed,
		cfg:        baseConfig(),
		profileDir: filepath.Join(runDir, "profile"),
		lumosd:     *lumosd,
		logDir:     runDir,
	}
	var w workload
	switch *name {
	case "plan-cold":
		w = &planCold{env: e}
	case "sweep-whatif":
		w = &sweepWhatIf{env: e}
	case "serve-plan":
		if *lumosd == "" {
			return errors.New("serve-plan needs -lumosd")
		}
		w = &servePlan{env: e}
	default:
		return fmt.Errorf("unknown workload %q (want plan-cold | serve-plan | sweep-whatif)", *name)
	}

	if err := generate(ctx, e); err != nil {
		return err
	}
	var err error
	if rec.ProfileDigest, err = profileDigest(e.profileDir); err != nil {
		return err
	}
	rec.ProfileMiB = e.profileMiB

	var res result
	if traced {
		res, err = tracedRun(ctx, w, e, *name, time.Duration(*seconds*float64(time.Second)), rec, filepath.Join(*work, "results"))
	} else {
		res, err = plainRun(ctx, w, time.Duration(*seconds*float64(time.Second)), rec, filepath.Join(*work, "results"))
	}
	w.teardown()
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// generate writes the run's base profile through a child process.
func generate(ctx context.Context, e *env) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(e.profileDir, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, self, "gen", "-out", e.profileDir)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generating the profile: %w", err)
	}
	e.profileMiB = dirMiB(e.profileDir)
	return nil
}

// profileDigest hashes the generated rank files in rank order and records
// their size, so runs on different generated inputs are told apart.
func profileDigest(dir string) (string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "rank_*.json"))
	if err != nil || len(paths) == 0 {
		return "", fmt.Errorf("no generated rank files in %s", dir)
	}
	sort.Slice(paths, func(i, j int) bool {
		if len(paths[i]) != len(paths[j]) {
			return len(paths[i]) < len(paths[j])
		}
		return paths[i] < paths[j]
	})
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// timeSetups sets the workload up n times (tearing down between) and
// returns the median set-up time; the last set-up stays live.
func timeSetups(ctx context.Context, w workload, n int) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			w.teardown()
			runtime.GC()
		}
		t0 := time.Now()
		if err := w.setup(ctx, nil); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	fmt.Fprintf(os.Stderr, "setup times: %v\n", times)
	return median(times), nil
}

// phase is the outcome of a timed closed loop.
type phase struct {
	lat, latTraced latencies
	completed      int
	wall           time.Duration
	inverted       int
	judged         int
	failures       []string
}

// timedPhase drives the workload's clients in a closed loop for dur: each
// client sends its next question only after the previous answer, and ops
// in flight at the deadline finish. Questions are numbered from 1 (0 was
// the warm-up); with traced set, odd questions run traced and their spans
// are folded into lt and pf, placed on pf's timeline relative to base.
func timedPhase(ctx context.Context, w workload, dur time.Duration, traced bool, lt *layerTotals, pf *perfetto, base time.Time) phase {
	var (
		mu   sync.Mutex
		p    phase
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(1)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				k := int(next.Add(1) - 1)
				var tr *lumos.Tracer
				if traced && k%2 == 1 {
					tr = lumos.NewTracer()
				}
				opStart := time.Now()
				res := w.op(ctx, k, tr)
				mu.Lock()
				failed := res.err != nil
				if failed {
					if len(p.failures) < 5 {
						p.failures = append(p.failures, fmt.Sprintf("op %d: %v", k, res.err))
					}
				} else {
					p.completed++
				}
				if tr != nil {
					p.latTraced.add(res.wall, failed)
					if res.trace != nil && !failed {
						lt.addOp(*res.trace)
						pf.addOp(res.trace.events, float64(opStart.Sub(base))/1e3, 100*(client+1))
					}
				} else {
					p.lat.add(res.wall, failed)
				}
				if res.judged {
					p.judged++
					if res.inverted {
						p.inverted++
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	for _, f := range p.failures {
		fmt.Fprintln(os.Stderr, "failed", f)
	}
	return p
}

// plainRun is the untraced run: end-to-end metrics.
func plainRun(ctx context.Context, w workload, dur time.Duration, rec hostRecord, resultsDir string) (result, error) {
	setupS, err := timeSetups(ctx, w, setupRepeats)
	if err != nil {
		return result{}, err
	}
	before, err := w.usage()
	if err != nil {
		return result{}, err
	}
	p := timedPhase(ctx, w, dur, false, nil, nil, time.Now())
	after, err := w.usage()
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	attempted := len(p.lat)
	failed := p.lat.failed()
	accStart := time.Now()
	predErr, replayErr, accErr := w.accuracy(ctx)
	if accErr != nil {
		fmt.Fprintln(os.Stderr, "accuracy pass:", accErr)
	}
	fmt.Fprintf(os.Stderr, "accuracy pass %.2fs\n", time.Since(accStart).Seconds())
	rec.RefAfterS = refLoop()

	tail := tailQuantile(attempted)
	if tail < 0.9 {
		fmt.Fprintf(os.Stderr, "warning: %d ops is too few for p90 (needs %d)\n", attempted, 10*minTail)
	}
	m := map[string]metric{
		"setup_s":          {setupS, "s"},
		"op_p50_s":         {finite(p.lat.quantile(0.5)), "s"},
		"op_p90_s":         {finite(p.lat.quantile(0.9)), "s"},
		"ops_per_s":        {float64(p.completed) / p.wall.Seconds(), "1/s"},
		"peak_rss_mib":     {after.peakMiB, "MiB"},
		"alloc_mib_per_op": {(after.allocBytes - before.allocBytes) / float64(max(attempted, 1)) / (1 << 20), "MiB"},
		"pred_err_pct":     {predErr, "%"},
		"replay_err_pct":   {replayErr, "%"},
	}
	printRecord(rec, resultsDir)
	fmt.Printf("%-18s %14s  %s\n", "end-to-end", "value", "unit")
	for _, k := range []string{"setup_s", "op_p50_s", "op_p90_s", "ops_per_s", "peak_rss_mib", "alloc_mib_per_op", "pred_err_pct", "replay_err_pct"} {
		fmt.Printf("%-18s %14.6g  %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("%-18s %14.6g  %s\n", "fail_pct", failPct(attempted, failed), "%")
	fmt.Printf("ops %d (tail percentile p%g), wall %.2fs\n", attempted, 100*tail, p.wall.Seconds())
	return result{
		Correct:   failed == 0 && accErr == nil && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// tracedRun is the traced run: one traced set-up, then a timed phase whose
// odd ops run traced; the per-layer split comes from their spans.
func tracedRun(ctx context.Context, w workload, e *env, name string, dur time.Duration, rec hostRecord, resultsDir string) (result, error) {
	lt := newLayerTotals()
	pf := &perfetto{}
	tr := lumos.NewTracer()
	t0 := time.Now()
	if err := w.setup(ctx, tr); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	fmt.Fprintf(os.Stderr, "traced setup %.3fs\n", time.Since(t0).Seconds())
	pf.add(tr.Events(), 0, 0)
	foldSetup(lt, tr.Events(), e.profileMiB)
	before, err := w.usage()
	if err != nil {
		return result{}, err
	}
	p := timedPhase(ctx, w, dur, true, lt, pf, t0)
	after, err := w.usage()
	if err != nil {
		return result{}, err
	}
	if err := ctx.Err(); err != nil {
		return result{}, err
	}
	attempted := len(p.lat) + len(p.latTraced)
	failed := p.lat.failed() + p.latTraced.failed()
	if err := w.setupLayers(ctx, lt); err != nil {
		return result{}, err
	}
	if err := w.finishLayers(lt, before, after, attempted); err != nil {
		return result{}, err
	}
	lt.gcPerOp = (after.gcCycles - before.gcCycles) / float64(max(attempted, 1))
	lt.inversions, lt.inversionsOf = p.inverted, p.judged
	if un := p.lat.quantile(0.5); un > 0 && !math.IsInf(un, 0) {
		lt.traceOverheadPct = 100 * (p.latTraced.quantile(0.5)/un - 1)
	}
	rec.RefAfterS = refLoop()
	m := lt.metrics(poolWorkers(), (rec.RefBeforeS+rec.RefAfterS)/2)

	tracePath := filepath.Join(resultsDir, fmt.Sprintf("%s-seed%d.perfetto.json", name, e.seed))
	if err := pf.write(tracePath); err != nil {
		return result{}, err
	}
	printRecord(rec, resultsDir)
	fmt.Printf("traced ops %d of %d; Perfetto trace: %s\n", len(p.latTraced), attempted, tracePath)
	lt.writeSelfTable(os.Stdout)
	fmt.Printf("%-28s %14s  %s\n", "per-layer", "value", "unit")
	for _, k := range perLayerNames(m) {
		fmt.Printf("%-28s %14.6g  %s\n", k, m[k].Value, m[k].Unit)
	}
	return result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}, nil
}

// foldSetup records the set-up's decode, graph-build and calibration spans.
func foldSetup(lt *layerTotals, events []lumos.TraceEvent, profileMiB float64) {
	for _, ev := range events {
		switch {
		case ev.Cat == benchCat && ev.Name == "LoadTraces":
			lt.decodeS = ev.Dur / 1e6
			lt.decodeMiB = profileMiB
		case ev.Cat == "pipeline" && ev.Name == "build-graph":
			lt.buildS = append(lt.buildS, ev.Dur/1e6)
		case ev.Cat == "pipeline" && ev.Name == "calibrate":
			lt.calibrateS = append(lt.calibrateS, ev.Dur/1e6)
		}
	}
}

// poolWorkers is the toolkit's default sweep pool size, min(GOMAXPROCS, 8).
func poolWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// printRecord prints the run's host and input record and keeps a copy next
// to the run's results.
func printRecord(rec hostRecord, dir string) {
	data, _ := json.Marshal(rec)
	fmt.Printf("record %s\n", data)
	if err := os.MkdirAll(dir, 0o755); err == nil {
		suffix := "e2e"
		if rec.Trace {
			suffix = "layers"
		}
		os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.record.json", rec.Workload, rec.Seed, suffix)), append(data, '\n'), 0o644)
	}
}

// loadTraces decodes the generated profile, inside a benchmark span when
// traced.
func loadTraces(e *env, root *lumos.Span) (*lumos.Multi, error) {
	sp := root.Child("LoadTraces")
	m, err := lumos.LoadTraces(e.profileDir)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("decoding the profile: %w", err)
	}
	return m, nil
}

// dirMiB is the total size of the files directly in dir.
func dirMiB(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := int64(0)
	for _, en := range entries {
		if info, err := en.Info(); err == nil && !info.IsDir() {
			total += info.Size()
		}
	}
	return float64(total) / (1 << 20)
}

// joinErrs formats the first few failures of a check.
func joinErrs(errs []string) error {
	if len(errs) == 0 {
		return nil
	}
	if len(errs) > 3 {
		errs = append(errs[:3], fmt.Sprintf("and %d more", len(errs)-3))
	}
	return errors.New(strings.Join(errs, "; "))
}

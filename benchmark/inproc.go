package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"lumos"
)

// planCold is the cold `lumos plan -in` question, in process: every op
// builds a fresh campaign from the decoded profile (New + PrepareTraces)
// and plans a small PP×DP×microbatch space with the default strategy.
// Synthesis, calibration and allocation dominate; there are no target
// replays, retimes, memo hits or HTTP.
type planCold struct {
	inProcess
	env    *env
	traces *lumos.Multi
	// want is the warm-up op's frontier; every op must reproduce it.
	want []frontierPoint
}

// frontierPoint is one answered point, compared across ops.
type frontierPoint struct {
	key  string
	iter int64
}

// clients is two closed-loop clients, as for serve-plan: one client on a
// 2-CPU host leaves a core idle during PrepareTraces and completes too few
// ops for a p90 in a run.
func (w *planCold) clients() int { return 2 }

func (w *planCold) setup(ctx context.Context, tr *lumos.Tracer) error {
	root := tr.Start(benchCat, "setup plan-cold")
	defer root.End()
	m, err := loadTraces(w.env, root)
	if err != nil {
		return err
	}
	w.traces = m
	res, err := w.plan(lumos.ContextWithTracer(ctx, tr), w.traces, root, nil)
	if err != nil {
		return fmt.Errorf("warm-up plan: %w", err)
	}
	w.want = frontierOf(res)
	return nil
}

func (w *planCold) teardown() { w.traces, w.want = nil, nil }

// plan is one plan-cold op on traces m: a fresh toolkit and campaign, then
// the plan. ex, when non-nil, receives the planner's explain report.
func (w *planCold) plan(ctx context.Context, m *lumos.Multi, parent *lumos.Span, ex *lumos.PlanExplain) (*lumos.PlanResult, error) {
	sp := parent.Child("New+PrepareTraces")
	tk := lumos.New()
	st, err := tk.PrepareTraces(ctx, w.env.cfg, m)
	sp.End()
	if err != nil {
		return nil, err
	}
	opts := []lumos.PlanOption{lumos.WithMemoryModel(coldMemory())}
	if ex != nil {
		opts = append(opts, lumos.WithPlanExplain(ex))
	}
	sp = parent.Child("PlanState")
	defer sp.End()
	return tk.PlanState(ctx, st, coldSpace(), opts...)
}

func frontierOf(res *lumos.PlanResult) []frontierPoint {
	out := make([]frontierPoint, len(res.Frontier))
	for i, e := range res.Frontier {
		out[i] = frontierPoint{e.Point.Key(), int64(e.Iteration)}
	}
	return out
}

func (w *planCold) op(ctx context.Context, k int, tr *lumos.Tracer) opResult {
	var ex *lumos.PlanExplain
	if tr != nil {
		ex = &lumos.PlanExplain{}
	}
	root := tr.Start(benchCat, "op")
	root.Annotate("question", k)
	t0 := time.Now()
	res, err := w.plan(lumos.ContextWithTracer(ctx, tr), w.traces, root, ex)
	wall := time.Since(t0)
	root.End()
	if err == nil {
		err = checkFrontier(frontierOf(res), w.want)
	}
	out := opResult{wall: wall, err: err}
	if tr != nil && err == nil {
		out.trace = &opTrace{wallS: wall.Seconds(), events: tr.Events(), plans: []planFacts{planFactsOf(res, ex)}}
	}
	return out
}

// checkFrontier requires an op's frontier (keys and iterations) to equal
// the warm-up op's.
func checkFrontier(got, want []frontierPoint) error {
	if len(want) == 0 {
		return fmt.Errorf("empty reference frontier")
	}
	if len(got) != len(want) {
		return fmt.Errorf("frontier has %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("frontier point %d is %s @ %d ns, want %s @ %d ns", i, got[i].key, got[i].iter, want[i].key, want[i].iter)
		}
	}
	return nil
}

// accuracy answers plan-cold's question on the accuracy panel's profile and
// compares every answered point against ground truth.
func (w *planCold) accuracy(ctx context.Context) (float64, float64, error) {
	tk := lumos.New()
	m, err := tk.Profile(ctx, w.env.cfg, panelSeed(0))
	if err != nil {
		return 0, 0, err
	}
	res, err := w.plan(ctx, m, nil, nil)
	if err != nil {
		return 0, 0, err
	}
	var preds []prediction
	for _, e := range append(append([]lumos.PlanEvaluated{}, res.Frontier...), res.Dominated...) {
		preds = append(preds, prediction{name: e.Point.Key(), cfg: e.Point.Config(w.env.cfg), iter: float64(e.Iteration)})
	}
	predErr, err := predictionError(ctx, preds, 2)
	if err != nil {
		return 0, 0, err
	}
	replayErr, err := replayError(ctx, w.env.cfg, inProcessReplay)
	return predErr, replayErr, err
}

// sweepWhatIf is `lumos sweep` on one long-lived campaign: every op is a
// 37-scenario campaign — kernel-class what-ifs replaying the one large base
// program, fabric what-ifs synthesizing through sweep's fabric path, and 19
// scenarios that repeat every op and are served by the memo.
type sweepWhatIf struct {
	inProcess
	env *env
	tk  *lumos.Toolkit
	st  *lumos.BaseState
	// want holds the warm-up op's iteration for every repeated scenario.
	want map[string]int64
}

func (w *sweepWhatIf) clients() int { return 1 }

func (w *sweepWhatIf) setup(ctx context.Context, tr *lumos.Tracer) error {
	root := tr.Start(benchCat, "setup sweep-whatif")
	defer root.End()
	m, err := loadTraces(w.env, root)
	if err != nil {
		return err
	}
	ctx = lumos.ContextWithTracer(ctx, tr)
	sp := root.Child("New+PrepareTraces")
	w.tk = lumos.New()
	w.st, err = w.tk.PrepareTraces(ctx, w.env.cfg, m)
	sp.End()
	if err != nil {
		return err
	}
	q := sweepWhatIfQuestion(w.env.seed, 0, w.env.cfg)
	sp = root.Child("EvaluateState")
	res, err := w.tk.EvaluateState(ctx, w.st, q.Scenarios...)
	sp.End()
	if err != nil {
		return fmt.Errorf("warm-up campaign: %w", err)
	}
	if err := checkSweep(res, q, nil); err != nil {
		return fmt.Errorf("warm-up campaign: %w", err)
	}
	w.want = map[string]int64{}
	for _, r := range res.Results {
		w.want[r.Name] = int64(r.Iteration)
	}
	return nil
}

func (w *sweepWhatIf) teardown() { w.tk, w.st, w.want = nil, nil, nil }

func (w *sweepWhatIf) op(ctx context.Context, k int, tr *lumos.Tracer) opResult {
	q := sweepWhatIfQuestion(w.env.seed, k, w.env.cfg)
	root := tr.Start(benchCat, "op")
	root.Annotate("question", k)
	sp := root.Child("EvaluateState")
	t0 := time.Now()
	res, err := w.tk.EvaluateState(lumos.ContextWithTracer(ctx, tr), w.st, q.Scenarios...)
	wall := time.Since(t0)
	sp.End()
	root.End()
	if err == nil {
		err = checkSweep(res, q, w.want)
	}
	out := opResult{wall: wall, err: err}
	if tr != nil && err == nil {
		fabric := map[string]bool{}
		for n := range q.Fabric {
			fabric[n] = true
		}
		out.trace = &opTrace{wallS: wall.Seconds(), events: tr.Events(), fabricScenarios: fabric}
		for _, r := range res.Results {
			out.trace.libraryHits += r.LibraryHits
			out.trace.libraryMisses += r.LibraryMisses
		}
	}
	return out
}

// checkSweep requires one feasible result per scenario and, given want,
// that every memo-served row equals its first computation.
func checkSweep(res *lumos.SweepResult, q sweepQuestion, want map[string]int64) error {
	if len(res.Results) != len(q.Scenarios) {
		return fmt.Errorf("%d results for %d scenarios", len(res.Results), len(q.Scenarios))
	}
	got := map[string]lumos.ScenarioResult{}
	for _, r := range res.Results {
		if _, dup := got[r.Name]; dup {
			return fmt.Errorf("duplicate result %q", r.Name)
		}
		got[r.Name] = r
	}
	var errs []string
	for _, names := range [][]string{q.Fresh, q.Repeated} {
		for _, n := range names {
			r, ok := got[n]
			switch {
			case !ok:
				errs = append(errs, fmt.Sprintf("no result for %q", n))
			case !r.Feasible():
				errs = append(errs, fmt.Sprintf("%q infeasible: %s", n, r.Err))
			case r.Iteration <= 0:
				errs = append(errs, fmt.Sprintf("%q has iteration %d", n, r.Iteration))
			}
		}
	}
	if want != nil {
		for _, n := range q.Repeated {
			if r, ok := got[n]; ok && int64(r.Iteration) != want[n] {
				errs = append(errs, fmt.Sprintf("memo-served %q is %d ns, first computed %d ns", n, r.Iteration, want[n]))
			}
		}
	}
	return joinErrs(errs)
}

// accuracy runs sweep-whatif's first campaign on the accuracy panel's
// profile and compares every answer that has a ground truth — deployments,
// schedules, architectures and fabrics; kernel what-ifs have none.
func (w *sweepWhatIf) accuracy(ctx context.Context) (float64, float64, error) {
	tk := lumos.New()
	cfg := w.env.cfg
	m, err := tk.Profile(ctx, cfg, panelSeed(0))
	if err != nil {
		return 0, 0, err
	}
	st, err := tk.PrepareTraces(ctx, cfg, m)
	if err != nil {
		return 0, 0, err
	}
	q := sweepWhatIfQuestion(panelQuestionSeed, 0, cfg)
	res, err := tk.EvaluateState(ctx, st, q.Scenarios...)
	if err != nil {
		return 0, 0, err
	}
	if err := checkSweep(res, q, nil); err != nil {
		return 0, 0, err
	}
	truth, err := sweepTruths(q, cfg)
	if err != nil {
		return 0, 0, err
	}
	var preds []prediction
	for _, r := range res.Results {
		if p, ok := truth[r.Name]; ok {
			p.iter = float64(r.Iteration)
			preds = append(preds, p)
		}
	}
	predErr, err := predictionError(ctx, preds, 1)
	if err != nil {
		return 0, 0, err
	}
	replayErr, err := replayError(ctx, cfg, inProcessReplay)
	return predErr, replayErr, err
}

// sweepTruths maps each scenario of q that has a ground truth to the
// deployment and fabric to profile it on. Grid points wider than the base's
// 8 GPUs are left out to bound the pass's cost.
func sweepTruths(q sweepQuestion, base lumos.Config) (map[string]prediction, error) {
	out := map[string]prediction{"baseline": {name: "baseline", cfg: base}}
	for _, spec := range []string{"1f1b", "gpipe", "interleaved2", "zb-h1"} {
		cfg, err := lumos.WithScheduleSpec(base, spec)
		if err != nil {
			return nil, err
		}
		out["schedule="+spec] = prediction{name: "schedule=" + spec, cfg: cfg}
	}
	for _, sc := range lumos.GridSweep(base.Arch, []int{base.Map.TP}, []int{1, 2, 4}, []int{1, 2, 4}) {
		var pp, dp int
		if _, err := fmt.Sscanf(sc.Name()[len(base.Arch.Name)+1:], "%dx%dx%d", new(int), &pp, &dp); err != nil {
			return nil, fmt.Errorf("parsing grid scenario %q: %w", sc.Name(), err)
		}
		if base.Map.TP*pp*dp > base.Map.WorldSize() {
			continue
		}
		cfg := base
		cfg.Map = lumos.Mapping{TP: base.Map.TP, PP: pp, DP: dp}
		out[sc.Name()] = prediction{name: sc.Name(), cfg: cfg}
	}
	for _, arch := range []lumos.Arch{lumos.GPT3_V1(), lumos.GPT3_V2(), lumos.GPT3_V3(), lumos.GPT3_V4()} {
		cfg := base
		cfg.Arch = arch
		out["arch="+arch.Name] = prediction{name: "arch=" + arch.Name, cfg: cfg}
	}
	for n, f := range q.Fabric {
		out[n] = prediction{name: n, cfg: base, fabric: f}
	}
	return out, nil
}

// inProcess holds what the in-process workloads share: the program runs in
// this process, and their traced set-up already covers every set-up layer.
type inProcess struct{}

func (inProcess) usage() (usage, error)                              { return selfUsage() }
func (inProcess) setupLayers(context.Context, *layerTotals) error    { return nil }
func (inProcess) finishLayers(*layerTotals, usage, usage, int) error { return nil }

// selfUsage samples this process's peak RSS, heap allocation and GC
// cycles.
func selfUsage() (usage, error) {
	peak, err := vmHWM(os.Getpid())
	if err != nil {
		return usage{}, err
	}
	u := readGoUsage()
	return usage{peakMiB: peak, allocBytes: float64(u.totalAlloc), gcCycles: float64(u.gcCycles)}, nil
}

// prediction is one answered point with a ground truth: the deployment and
// fabric (nil = the flat H100 default) to profile, and the predicted
// iteration in ns.
type prediction struct {
	name   string
	cfg    lumos.Config
	fabric lumos.Fabric
	iter   float64
}

// predictionError is the mean |predicted − actual| ÷ actual in percent,
// with actual the mean iteration of `seeds` ground-truth profiles at
// held-out seeds.
func predictionError(ctx context.Context, preds []prediction, seeds int) (float64, error) {
	if len(preds) == 0 {
		return 0, fmt.Errorf("no answered points with a ground truth")
	}
	sum := 0.0
	for _, p := range preds {
		var opts []lumos.Option
		if p.fabric != nil {
			opts = append(opts, lumos.WithFabric(p.fabric))
		}
		tk := lumos.New(opts...)
		actual := 0.0
		for k := 0; k < seeds; k++ {
			m, err := tk.Profile(ctx, p.cfg, heldOutSeed("truth", k))
			if err != nil {
				return 0, fmt.Errorf("ground truth for %s: %w", p.name, err)
			}
			actual += float64(lumos.IterationTime(m))
		}
		actual /= float64(seeds)
		sum += math.Abs(p.iter-actual) / actual
	}
	fmt.Fprintf(os.Stderr, "prediction error over %d answered points\n", len(preds))
	return 100 * sum / float64(len(preds)), nil
}

// replayPanel is the number of accuracy-panel base profiles replayed, and
// replayTruths the number of held-out ground truths each is compared with.
const replayPanel, replayTruths = 2, 3

// replayError is the paper's headline metric on the accuracy panel: each
// panel profile's replayed iteration (from replayed) against ground-truth
// iterations at held-out seeds, as a mean relative error in percent.
func replayError(ctx context.Context, cfg lumos.Config, replayed func(ctx context.Context, panel int) (float64, error)) (float64, error) {
	var truths []float64
	for k := 0; k < replayTruths; k++ {
		m, err := lumos.New().Profile(ctx, cfg, heldOutSeed("replay-truth", k))
		if err != nil {
			return 0, err
		}
		truths = append(truths, float64(lumos.IterationTime(m)))
	}
	sum, n := 0.0, 0
	for p := 0; p < replayPanel; p++ {
		rep, err := replayed(ctx, p)
		if err != nil {
			return 0, err
		}
		for _, a := range truths {
			sum += math.Abs(rep-a) / a
			n++
		}
	}
	return 100 * sum / float64(n), nil
}

// inProcessReplay profiles panel base p and replays it in process.
func inProcessReplay(ctx context.Context, p int) (float64, error) {
	tk := lumos.New()
	m, err := tk.Profile(ctx, baseConfig(), panelSeed(p))
	if err != nil {
		return 0, err
	}
	rep, err := tk.ReplayTraces(ctx, m)
	if err != nil {
		return 0, err
	}
	return float64(rep.Iteration), nil
}

// The accuracy panel is fixed, independent of the workload seed: answer
// quality is measured on the same inputs in every run, so it is identical
// across runs of the same code and moves only when the program's answers
// do.
func panelSeed(p int) uint64 { return heldOutSeed("panel", p) }

// panelQuestionSeed draws the panel's fixed question factors.
const panelQuestionSeed = 0

// Deployment planning: the search entry points. Toolkit.Plan sits the
// planner subsystem on top of the sweep engine — the planner decides
// *which* points of a parallelism × microbatch × fabric space deserve full
// graph simulation (memory pre-filter, analytic bounds, search strategy),
// and each promoted point is evaluated as a scenario against the shared
// campaign BaseState, so a point an earlier plan on the same state already
// simulated hits the scenario cache, and the whole search is deterministic
// at any worker count.
package core

import (
	"context"
	"fmt"
	"sync"

	"lumos/internal/analysis"
	"lumos/internal/collective"
	"lumos/internal/manip"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/planner"
	"lumos/internal/replay"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// structEntry is one structurally keyed synthesized graph: built once
// (under once) and then shared read-only by every sibling point. The
// compiled replay artifacts — the lowered program, the comm retime plan
// and the program's own replayed makespan — are built lazily under
// progOnce, so campaign-fabric-only keys never pay for them.
type structEntry struct {
	once sync.Once
	out  *manip.GraphResult
	err  error

	progOnce sync.Once
	prog     *replay.Program
	plan     *manip.CommRetimePlan
	own      trace.Dur
	progErr  error
}

// compiled returns the entry's lowered program, its comm retime plan priced
// on the campaign fabric, and the makespan of replaying the program at its
// own durations, building all three at most once per structural key. sp,
// when non-nil, parents a "compile" span attributed to whichever scenario
// lowers first.
func (e *structEntry) compiled(b *BaseState, campaign topology.Fabric, sp *obs.Span) (*replay.Program, *manip.CommRetimePlan, trace.Dur, error) {
	e.progOnce.Do(func() {
		defer recordPanic(&e.progErr, "compile")
		csp := sp.Child("compile")
		defer csp.End()
		e.prog = b.tk.compile(e.out.Graph, replay.DefaultOptions())
		e.plan = manip.NewCommRetimePlan(e.out.Graph, collective.NewPricer(campaign))
		e.own, e.progErr = b.tk.replayProgram(e.prog, nil)
	})
	return e.prog, e.plan, e.own, e.progErr
}

// recordPanic, deferred first in a sync.Once body that builds shared
// state, stores a panic in *err and re-raises it. Once counts a panicking
// body as done, so without it every later caller would read the
// half-built state with a nil error; with it they get the error, and the
// panic still reaches the scenario that triggered it (see runScenario).
func recordPanic(err *error, stage string) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("internal: %s panicked: %v", stage, r)
		panic(r)
	}
}

// structCacheCap bounds how many synthesized graphs a campaign state keeps
// alive for structural sharing. Past the cap, points synthesize into a
// private entry — the prediction is bit-identical either way (synthesis is
// deterministic), only the sharing is lost, so cache pressure can never
// change a result.
const structCacheCap = 64

// synthesizeStructural returns the campaign-fabric synthesis of the
// target, shared across every point with the same structure (the fabric
// and degrade axes vary only durations, never the DAG). Past
// structCacheCap the entry is private to the caller and not stored. sp,
// when non-nil, parents a "synthesize" span attributed to whichever
// scenario synthesizes first (structural-cache hits emit no span); the
// span records the world's ranks, the ranks simulated and the price-class
// count.
//
// The synthesis simulates one DP replica per price class under the
// campaign's predictor. A caller whose retime splits a class (see
// predictOnFabric) passes the finer partition and the pricers that split
// it, and gets the synthesis under that partition in its own entry.
func (b *BaseState) synthesizeStructural(req manip.Request, sp *obs.Span, split parallel.Classes, refine ...collective.Pricer) (*structEntry, error) {
	key := fmt.Sprintf("%+v", req.Target)
	if split != nil {
		key += fmt.Sprintf("|classes=%v", split)
	}
	v, ok := b.structs.Load(key)
	if !ok {
		if b.structCount.Load() >= structCacheCap {
			v = &structEntry{}
		} else {
			var loaded bool
			v, loaded = b.structs.LoadOrStore(key, &structEntry{})
			if !loaded {
				b.structCount.Add(1)
			}
		}
	}
	e := v.(*structEntry)
	e.once.Do(func() {
		defer recordPanic(&e.err, "synthesis")
		ssp := sp.Child("synthesize")
		defer ssp.End()
		e.out, e.err = manip.PredictGraphWith(req, b.Library, b.Fitted, b.Fabric, refine...)
		if e.err == nil {
			m := req.Target.Map
			classes := e.out.Classes.Count(m.DP)
			ssp.Annotate("world_ranks", m.WorldSize())
			ssp.Annotate("simulated_ranks", classes*m.TP*m.PP)
			ssp.Annotate("classes", classes)
		}
	})
	return e, e.err
}

// fabricPrediction is one target deployment priced on one fabric.
type fabricPrediction struct {
	// out is the target's synthesis on the campaign fabric.
	out *manip.GraphResult
	// iteration is the predicted iteration time on the target fabric.
	iteration trace.Dur
	// breakdown decomposes the prediction; zero unless requested.
	breakdown analysis.Breakdown
	// retimed reports that the shared graph was re-timed and replayed;
	// repriced counts the collective groups that were re-priced.
	retimed  bool
	repriced int
}

// predictOnFabric is the one way sweep and plan answer "what would this
// deployment take on that fabric?". f is the resolved target fabric
// (sized, degraded and validated; see planner.ResolveFabric).
//
// The target is synthesized once on the campaign fabric and shared with
// every fabric it is priced on. On the campaign fabric itself the answer
// is the synthesized iteration. Elsewhere each collective group's
// synthesized duration is scaled by target/campaign analytic cost (see
// manip.CommRetimePlan), the shared program is replayed at those
// durations, and the answer is the synthesized iteration plus the replayed
// change: retimed makespan minus the program's own makespan. A retime
// must move every replica a synthesized price class stands for alike, so
// before it the class partition is re-checked under the campaign and
// target pricers; if a class splits, the target is synthesized under the
// finer partition in its own structural entry and the fallback is counted
// (lumos_synth_class_splits_total). A plan point
// whose retime changes no collective's duration skips the replay: its
// change is zero by construction. The anchor
// cancels the replay's offset from synthesis (a launch-bound kernel starts
// LaunchLatency after its launch in synthesis but OpEpilogue after it in
// the graph, so replaying a synthesized graph at its own durations ends
// 1–2 µs early), and a fabric that changes no duration answers exactly the
// synthesized iteration. breakdown requests the replayed execution
// breakdown.
func (b *BaseState) predictOnFabric(req manip.Request, f topology.Fabric, breakdown bool, sp *obs.Span) (fabricPrediction, error) {
	e, err := b.synthesizeStructural(req, sp, nil)
	if err != nil {
		return fabricPrediction{}, err
	}
	// The campaign fabric sized for the target — the fabric synthesis
	// priced on — resolves as a plan point with no fabric override.
	m := req.Target.Map
	campaign, err := planner.ResolveFabric(planner.Point{TP: m.TP, PP: m.PP, DP: m.DP}, b.Fabric)
	if err != nil {
		return fabricPrediction{}, err
	}
	if fabricFingerprint(f) == fabricFingerprint(campaign) {
		p := fabricPrediction{out: e.out, iteration: e.out.Iteration}
		if breakdown {
			p.breakdown = analysis.GraphBreakdown(e.out.Graph)
		}
		return p, nil
	}
	basePricer, targetPricer := collective.NewPricer(campaign), collective.NewPricer(f)
	if fine, split := e.out.Split(m, basePricer, targetPricer); split {
		b.tk.classSplits.Add(1)
		if e, err = b.synthesizeStructural(req, sp, fine, basePricer, targetPricer); err != nil {
			return fabricPrediction{}, err
		}
	}
	p := fabricPrediction{out: e.out, iteration: e.out.Iteration}
	prog, plan, own, err := e.compiled(b, campaign, sp)
	if err != nil {
		return fabricPrediction{}, err
	}
	buf := b.tk.acquireTimings(prog)
	defer b.tk.releaseTimings(buf)
	tsp := sp.Child("retime")
	repriced, changed := plan.Retime(buf.Dur, buf.GroupDur, targetPricer)
	tsp.Annotate("changed", changed)
	tsp.End()
	p.repriced, p.retimed = repriced, true
	if changed == 0 && !breakdown {
		// The retime moved no collective, so the program would replay to
		// its own makespan and the anchored change is zero: the answer is
		// the synthesized iteration, with no replay.
		b.tk.skippedRuns.Add(1)
		return p, nil
	}
	scratch := b.tk.acquireScratch()
	defer b.tk.releaseScratch(scratch)
	rsp := sp.Child("replay")
	res, err := b.tk.run(prog, *buf, scratch)
	rsp.End()
	if err != nil {
		return fabricPrediction{}, err
	}
	p.iteration += res.Makespan - own
	if breakdown {
		// Read off the scratch's columns before it returns to the pool.
		p.breakdown = analysis.ReplayBreakdown(e.out.Graph, res.Start, res.End)
	}
	return p, nil
}

// planScenario evaluates one planner candidate: the target deployment
// priced on the point's own (possibly degraded) fabric, which defaults to
// the campaign's.
type planScenario struct {
	cand planner.Candidate
}

func (s *planScenario) Name() string { return s.cand.Point.Key() }

// Fingerprint keys the scenario by the point's canonical identity, so a
// point that an earlier plan (or another strategy) on the same campaign
// state already simulated is served from the scenario cache.
func (s *planScenario) Fingerprint(*BaseState) (string, bool) {
	return "plan|" + s.cand.Point.Key(), true
}

func (s *planScenario) Run(ctx context.Context, b *BaseState) (ScenarioResult, error) {
	p := s.cand.Point
	target := p.Config(b.Config)
	res := ScenarioResult{
		Name:   s.Name(),
		Kind:   "plan",
		Target: target,
		World:  target.Map.WorldSize(),
	}
	req := manip.Request{Base: b.Config, Target: target}
	if err := req.Validate(); err != nil {
		res.Err = err.Error()
		return res, nil
	}
	// The same resolution chain the planner's analytic bound used.
	f, err := planner.ResolveFabric(p, b.Fabric)
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	pred, err := b.predictOnFabric(req, f, false, obs.SpanFrom(ctx))
	if err != nil {
		res.Err = err.Error()
		return res, nil
	}
	res.Iteration = pred.iteration
	res.LibraryHits = pred.out.LibraryHits
	res.LibraryMisses = pred.out.LibraryMisses
	if pred.retimed {
		res.SharedStructure = true
		res.Detail = fmt.Sprintf("shared structure, %d comm groups repriced", pred.repriced)
	}
	return res, nil
}

// Plan profiles the base deployment once and runs the exact deployment
// search over the space: analytic memory and cost bounds reject and bound
// the candidates, the strategy (exhaustive or branch-and-bound; see
// planner) promotes survivors to full graph simulation on the sweep engine,
// and the result carries the non-dominated simulated points over
// (iteration time, GPU count, peak memory) with ranked dominated points
// retained.
func (tk *Toolkit) Plan(ctx context.Context, base parallel.Config, space planner.Space, opts ...planner.Option) (*planner.Result, error) {
	st, err := tk.Prepare(ctx, base, tk.opts.Seed)
	if err != nil {
		return nil, err
	}
	return tk.PlanState(ctx, st, space, opts...)
}

// PlanState is Plan against prepared campaign state, which may be shared
// with Evaluate campaigns and across multiple Plan calls — the scenario
// cache then spans all of them.
func (tk *Toolkit) PlanState(ctx context.Context, st *BaseState, space planner.Space, opts ...planner.Option) (*planner.Result, error) {
	sp := obs.TracerFrom(ctx).Start("pipeline", "plan")
	defer sp.End()
	sim := func(ctx context.Context, cands []planner.Candidate) ([]planner.Outcome, error) {
		scenarios := make([]Scenario, len(cands))
		for i := range cands {
			scenarios[i] = &planScenario{cand: cands[i]}
		}
		sweep, err := tk.EvaluateState(ctx, st, scenarios...)
		if err != nil {
			return nil, err
		}
		byName := make(map[string]ScenarioResult, len(sweep.Results))
		for _, r := range sweep.Results {
			byName[r.Name] = r
		}
		outs := make([]planner.Outcome, len(cands))
		for i, c := range cands {
			r, ok := byName[c.Point.Key()]
			if !ok {
				outs[i] = planner.Outcome{Err: "internal: scenario result missing"}
				continue
			}
			outs[i] = planner.Outcome{Iteration: r.Iteration, SharedStructure: r.SharedStructure, Err: r.Err}
		}
		return outs, nil
	}
	res, err := planner.Plan(ctx, st.Config, space, st.Fabric, sim, opts...)
	if err != nil {
		return nil, err
	}
	tk.boundViolations.Add(int64(res.Stats.BoundViolations))
	return res, nil
}

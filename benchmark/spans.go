package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"lumos"
)

// benchCat is the category of the spans the benchmark records around its
// own calls; every other category is the program's.
const benchCat = "bench"

// opTrace is one traced op: the spans the benchmark and the program
// recorded, plus what the program reported about the search.
type opTrace struct {
	// wallS is the client-side op latency.
	wallS float64
	// events are the op's trace events, timestamps relative to the op's
	// tracer.
	events []lumos.TraceEvent
	// fabricScenarios names the scenarios that synthesize without a
	// "synthesize" span (sweep's fabric path); their self time is synthesis.
	fabricScenarios map[string]bool
	plans           []planFacts
	// libraryHits/libraryMisses count kernels priced from measured
	// durations vs the fitted model, over the op's answers.
	libraryHits, libraryMisses int
	// respBytes is a lumosd op's response body size.
	respBytes int
}

// planFacts is what one answered plan reported about its search.
type planFacts struct {
	spacePoints, simulated, boundPruned, rounds, sharedStructure, frontier int
	// boundRatios are bound ÷ simulated time of every explained point.
	boundRatios []float64
}

func planFactsOf(res *lumos.PlanResult, ex *lumos.PlanExplain) planFacts {
	f := planFacts{
		spacePoints:     res.Stats.SpaceSize,
		simulated:       res.Stats.Simulated,
		boundPruned:     res.Stats.BoundPruned,
		rounds:          res.Stats.Rounds,
		sharedStructure: res.Stats.SharedStructure,
		frontier:        len(res.Frontier),
	}
	if ex != nil {
		f.boundRatios = boundRatios(ex.Simulated)
	}
	return f
}

func boundRatios(sims []lumos.PlanExplainSim) []float64 {
	var out []float64
	for _, s := range sims {
		if s.Err == "" && s.ActualMs > 0 {
			out = append(out, s.BoundMs/s.ActualMs)
		}
	}
	return out
}

// spanSelf computes each complete span's self time: its duration minus the
// union of the spans nested in it. The program opens a top-level span per
// stage and per scenario on its own track, so nesting is by time
// containment across tracks — except under a scenario span, whose children
// share its track: concurrent scenarios on other tracks are siblings.
func spanSelf(events []lumos.TraceEvent) []float64 {
	self := make([]float64, len(events))
	for i, x := range events {
		if x.Ph != "X" {
			continue
		}
		scenario := x.Cat == "scenario"
		var inner []lumos.TraceEvent
		for j, y := range events {
			if j == i || y.Ph != "X" || !contains(x, y) || (contains(y, x) && j > i) {
				continue
			}
			if scenario && y.Tid != x.Tid {
				continue
			}
			inner = append(inner, y)
		}
		self[i] = x.Dur - unionMicros(inner, true)
	}
	return self
}

// contains reports whether y lies within x's interval (to the microsecond
// rounding of exported timestamps).
func contains(x, y lumos.TraceEvent) bool {
	return y.Ts >= x.Ts-0.5 && y.Ts+y.Dur <= x.Ts+x.Dur+0.5
}

// unionMicros is the length of the union of the spans' intervals; with
// all unset only the program's spans count (the benchmark's are skipped).
func unionMicros(events []lumos.TraceEvent, all bool) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, e := range events {
		if e.Ph == "X" && (all || e.Cat != benchCat) {
			ivs = append(ivs, iv{e.Ts, e.Ts + e.Dur})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	total, end := 0.0, -1e308
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo > end {
			total += v.hi - v.lo
		} else {
			total += v.hi - end
		}
		end = v.hi
	}
	return total
}

// layerTotals accumulates per-layer figures over every traced op.
type layerTotals struct {
	ops int

	buildS, calibrateS []float64

	synthCount                 int
	synthUs                    float64
	compileCount               int
	compileUs                  float64
	replayRuns                 int
	replayUs                   float64
	retimeCount                int
	retimeUs                   float64
	scenarioLookups, memoHits  int
	scenarioUs, sweepUs        float64
	searchUs                   float64
	coveredUs, wallUs          float64
	plans                      []planFacts
	respBytes                  int
	selfBy                     map[string]float64
	libraryHits, libraryMisses int
	inversions, inversionsOf   int
	decodeS, decodeMiB         float64
	traceOverheadPct, gcPerOp  float64
	// serverSelfS is lumosd's time per plan request outside the planner.
	serverSelfS float64
}

func newLayerTotals() *layerTotals { return &layerTotals{selfBy: map[string]float64{}} }

// addOp folds one traced op into the totals.
func (t *layerTotals) addOp(op opTrace) {
	t.ops++
	self := spanSelf(op.events)
	var planSpans, sweepSpans []lumos.TraceEvent
	for i, e := range op.events {
		if e.Ph != "X" {
			continue
		}
		t.selfBy[e.Cat+"/"+layerName(e, op.fabricScenarios)] += self[i]
		switch {
		case e.Cat == "pipeline" && e.Name == "build-graph":
			t.buildS = append(t.buildS, e.Dur/1e6)
		case e.Cat == "pipeline" && e.Name == "calibrate":
			t.calibrateS = append(t.calibrateS, e.Dur/1e6)
		case e.Cat == "pipeline" && e.Name == "plan":
			planSpans = append(planSpans, e)
		case e.Cat == "pipeline" && e.Name == "sweep":
			sweepSpans = append(sweepSpans, e)
			t.sweepUs += e.Dur
		case e.Cat == "scenario" && e.Name == "synthesize":
			t.synthCount++
			t.synthUs += e.Dur
		case e.Cat == "scenario" && e.Name == "compile":
			t.compileCount++
			t.compileUs += e.Dur
		case e.Cat == "scenario" && e.Name == "retime":
			t.retimeCount++
			t.retimeUs += e.Dur
		case e.Cat == "scenario" && e.Name == "replay":
			t.replayRuns++
			t.replayUs += e.Dur
		case e.Cat == "scenario":
			// A scenario's root span: one memo lookup.
			t.scenarioLookups++
			t.scenarioUs += e.Dur
			if c, _ := e.Args["cache"].(string); c == "memo" {
				t.memoHits++
			} else if op.fabricScenarios[e.Name] {
				t.synthCount++
				t.synthUs += self[i]
			}
		}
	}
	for _, p := range planSpans {
		search := p.Dur
		for _, s := range sweepSpans {
			if s.Ts >= p.Ts && s.Ts+s.Dur <= p.Ts+p.Dur+0.5 {
				search -= s.Dur
			}
		}
		t.searchUs += search
	}
	t.coveredUs += unionMicros(op.events, false)
	t.wallUs += op.wallS * 1e6
	t.plans = append(t.plans, op.plans...)
	t.respBytes += op.respBytes
	t.libraryHits += op.libraryHits
	t.libraryMisses += op.libraryMisses
}

// layerName groups spans for the self-time table: scenario roots collapse
// into one row per kind, keeping the table short.
func layerName(e lumos.TraceEvent, fabric map[string]bool) string {
	if e.Cat != "scenario" {
		return e.Name
	}
	switch e.Name {
	case "synthesize", "compile", "retime", "replay":
		return e.Name
	}
	if fabric[e.Name] {
		return "(fabric scenario)"
	}
	return "(scenario)"
}

func pct(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return 100 * num / den
}

func perOp(v float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return v / float64(ops)
}

// metrics renders the per-layer metrics; workers is the sweep pool size.
func (t *layerTotals) metrics(workers int, refS float64) map[string]metric {
	var simulated, space, pruned, rounds, shared, frontier int
	var ratios []float64
	violations := 0
	for _, p := range t.plans {
		simulated += p.simulated
		space += p.spacePoints
		pruned += p.boundPruned
		rounds += p.rounds
		shared += p.sharedStructure
		frontier += p.frontier
		for _, r := range p.boundRatios {
			ratios = append(ratios, r)
			if r > 1 {
				violations++
			}
		}
	}
	nPlans := len(t.plans)
	decodeRate := 0.0
	if t.decodeS > 0 {
		decodeRate = t.decodeMiB / t.decodeS
	}
	synthMs := 0.0
	if t.synthCount > 0 {
		synthMs = t.synthUs / 1e3 / float64(t.synthCount)
	}
	runMs := 0.0
	if t.replayRuns > 0 {
		runMs = t.replayUs / 1e3 / float64(t.replayRuns)
	}
	return map[string]metric{
		"trace.decode_s":            {t.decodeS, "s"},
		"trace.decode_mib_per_s":    {decodeRate, "MiB/s"},
		"execgraph.build_s":         {mean(t.buildS), "s"},
		"kernelmodel.calibrate_s":   {mean(t.calibrateS), "s"},
		"manip.measured_pct":        {pct(float64(t.libraryHits), float64(t.libraryHits+t.libraryMisses)), "%"},
		"cluster.synth_count":       {perOp(float64(t.synthCount), t.ops), "count"},
		"cluster.synth_s":           {perOp(t.synthUs/1e6, t.ops), "s"},
		"cluster.synth_ms":          {synthMs, "ms"},
		"replay.compile_count":      {perOp(float64(t.compileCount), t.ops), "count"},
		"replay.compile_s":          {perOp(t.compileUs/1e6, t.ops), "s"},
		"replay.runs":               {perOp(float64(t.replayRuns), t.ops), "count"},
		"replay.busy_s":             {perOp(t.replayUs/1e6, t.ops), "s"},
		"replay.run_ms":             {runMs, "ms"},
		"manip.retime_count":        {perOp(float64(t.retimeCount), t.ops), "count"},
		"manip.retime_s":            {perOp(t.retimeUs/1e6, t.ops), "s"},
		"manip.inversion_pct":       {pct(float64(t.inversions), float64(t.inversionsOf)), "%"},
		"planner.space_points":      {perOp(float64(space), nPlans), "count"},
		"planner.simulated":         {perOp(float64(simulated), nPlans), "count"},
		"planner.bound_pruned":      {perOp(float64(pruned), nPlans), "count"},
		"planner.rounds":            {perOp(float64(rounds), nPlans), "count"},
		"planner.search_s":          {perOp(t.searchUs/1e6, t.ops), "s"},
		"planner.useful_sim_pct":    {pct(float64(frontier), float64(simulated)), "%"},
		"planner.bound_ratio_p50":   {median(ratios), "ratio"},
		"planner.bound_violations":  {float64(violations), "count"},
		"core.memo_hit_pct":         {pct(float64(t.memoHits), float64(t.scenarioLookups)), "%"},
		"core.shared_structure_pct": {pct(float64(shared), float64(simulated)), "%"},
		"core.pool_busy_pct":        {pct(t.scenarioUs, t.sweepUs*float64(workers)), "%"},
		"server.self_ms":            {t.serverSelfS * 1e3, "ms"},
		"server.resp_kib":           {perOp(float64(t.respBytes)/1024, t.ops), "KiB"},
		"runtime.gc_per_op":         {t.gcPerOp, "count"},
		"obs.trace_overhead_pct":    {t.traceOverheadPct, "%"},
		"obs.span_coverage_pct":     {pct(t.coveredUs, t.wallUs), "%"},
		"host.ref_s":                {refS, "s"},
	}
}

// writeSelfTable prints the per-layer self-time table, largest first.
func (t *layerTotals) writeSelfTable(w io.Writer) {
	type row struct {
		name string
		us   float64
	}
	var rows []row
	total := 0.0
	for k, v := range t.selfBy {
		rows = append(rows, row{k, v})
		total += v
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].us != rows[b].us {
			return rows[a].us > rows[b].us
		}
		return rows[a].name < rows[b].name
	})
	fmt.Fprintf(w, "%-34s %12s %8s\n", "span (cat/name)", "self ms/op", "share")
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s %12.3f %7.1f%%\n", r.name, perOp(r.us/1e3, t.ops), pct(r.us, total))
	}
}

// perfetto accumulates a Perfetto-loadable trace of the traced run: the
// benchmark's spans and the program's, each op shifted to its place on the
// run's timeline. Only the first maxOps ops are kept, bounding the file.
type perfetto struct {
	events []lumos.TraceEvent
	ops    int
}

const perfettoMaxOps = 24

// add appends events at offsetUs on the run timeline; tidBase keeps
// concurrent clients on separate tracks. Event pids are kept: 1 is this
// process, 2 a lumosd child.
func (p *perfetto) add(events []lumos.TraceEvent, offsetUs float64, tidBase int) {
	for _, e := range events {
		e.Ts += offsetUs
		e.Tid += tidBase
		p.events = append(p.events, e)
	}
}

// addOp is add for one traced op, keeping only the first perfettoMaxOps.
func (p *perfetto) addOp(events []lumos.TraceEvent, offsetUs float64, tidBase int) {
	if p.ops >= perfettoMaxOps {
		return
	}
	p.ops++
	p.add(events, offsetUs, tidBase)
}

func (p *perfetto) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		TraceEvents     []lumos.TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string             `json:"displayTimeUnit"`
	}{p.events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// perLayerNames lists the per-layer metrics in BENCHMARK.json order.
func perLayerNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Slice(names, func(a, b int) bool { return layerOrder(names[a]) < layerOrder(names[b]) })
	return names
}

func layerOrder(name string) string {
	for i, prefix := range []string{"trace.", "execgraph.", "kernelmodel.", "manip.", "cluster.", "replay.", "planner.", "core.", "server.", "runtime.", "obs.", "host."} {
		if strings.HasPrefix(name, prefix) {
			return fmt.Sprintf("%02d%s", i, name)
		}
	}
	return "99" + name
}

package core

import (
	"context"
	"testing"

	"lumos/internal/analysis"
	"lumos/internal/collective"
	"lumos/internal/manip"
	"lumos/internal/memcost"
	"lumos/internal/model"
	"lumos/internal/obs"
	"lumos/internal/parallel"
	"lumos/internal/planner"
	"lumos/internal/replay"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// perReplica is a pricer that prices every replica's communication apart
// (by its first rank), so splitting by it yields one class per replica:
// the full synthesis.
type perReplica struct{}

func (perReplica) Cost(_ trace.CommKind, _ int64, ranks []int) trace.Dur { return trace.Dur(ranks[0]) }

// retimeOn is predictOnFabric's answer computed by hand on one synthesis:
// the synthesized iteration plus the replayed change of retiming every
// collective from the campaign fabric to f, with the replayed breakdown
// and the repriced group count.
func retimeOn(t *testing.T, out *manip.GraphResult, campaign, f topology.Fabric) (trace.Dur, analysis.Breakdown, int) {
	t.Helper()
	prog := replay.Compile(out.Graph, replay.DefaultOptions())
	own, err := prog.Run(replay.Timings{}, replay.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	tm := replay.NewTimings(out.Graph)
	repriced, _ := manip.NewCommRetimePlan(out.Graph, collective.NewPricer(campaign)).Retime(tm.Dur, tm.GroupDur, collective.NewPricer(f))
	res, err := prog.Run(tm, replay.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	return out.Iteration + res.Makespan - own.Makespan, analysis.ReplayBreakdown(out.Graph, res.Start, res.End), repriced
}

// TestRetimeGuardSplitsPriceClass prices TP2×PP4×DP2, synthesized on the
// flat fabric where its two 8-rank replicas share one price class, on a
// two-tier fabric with 12-GPU domains: the boundary at rank 12 cuts the
// second replica's pipeline, so retiming the one simulated replica would
// miss its cross-domain transfers. The retime guard must notice the split,
// count it, and answer exactly what the full synthesis plus retime
// answers.
func TestRetimeGuardSplitsPriceClass(t *testing.T) {
	ctx := context.Background()
	tk := New(WithConcurrency(2))
	reg := obs.NewRegistry()
	tk.RegisterMetrics(reg)
	st, err := tk.Prepare(ctx, testConfig(t), 42)
	if err != nil {
		t.Fatal(err)
	}
	target := st.Config
	target.Map.PP, target.Map.DP = 4, 2
	req := manip.Request{Base: st.Config, Target: target}
	f := topology.HierFabric{Name: "dom12", NumGPUs: 24, Levels: []topology.Level{
		{Name: "nvlink", GPUs: 12, BW: 360e9, Latency: 4_000},
		{Name: "network", GPUs: 0, BW: 42e9, Latency: 12_000},
	}}
	campaign, err := planner.ResolveFabric(planner.Point{TP: 2, PP: 4, DP: 2}, st.Fabric)
	if err != nil {
		t.Fatal(err)
	}

	got, err := st.predictOnFabric(req, f, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Snapshot().Value("lumos_synth_class_splits_total", ""); v != 1 {
		t.Fatalf("lumos_synth_class_splits_total = %v, want 1", v)
	}
	if got.out.Classes.Merged() {
		t.Fatalf("the retimed synthesis kept a merged class: %v", got.out.Classes)
	}

	full, err := manip.PredictGraphWith(req, st.Library, st.Fitted, st.Fabric, perReplica{})
	if err != nil {
		t.Fatal(err)
	}
	iter, bd, repriced := retimeOn(t, full, campaign, f)
	if got.iteration != iter || got.breakdown != bd || got.repriced != repriced {
		t.Fatalf("guarded retime: iteration %d, breakdown %+v, %d repriced; full synthesis: %d, %+v, %d",
			got.iteration, got.breakdown, got.repriced, iter, bd, repriced)
	}
	if got.out.LibraryHits != full.LibraryHits || got.out.LibraryMisses != full.LibraryMisses {
		t.Fatalf("library hits/misses %d/%d, full synthesis %d/%d",
			got.out.LibraryHits, got.out.LibraryMisses, full.LibraryHits, full.LibraryMisses)
	}

	// Without the guard the merged synthesis would retime one replica for
	// both and answer differently: the case is one the guard must catch.
	merged, err := st.synthesizeStructural(req, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !merged.out.Classes.Merged() {
		t.Fatal("flat synthesis of TP2×PP4×DP2 should merge its two replicas")
	}
	if unguarded, _, _ := retimeOn(t, merged.out, campaign, f); unguarded == iter {
		t.Fatalf("retiming the merged synthesis also answers %d; the case does not exercise the guard", iter)
	}

	// A fabric that keeps both replicas alike needs no fallback.
	if _, err := st.predictOnFabric(req, topology.MustDegrade(campaign, 1, 0.5), false, nil); err != nil {
		t.Fatal(err)
	}
	if v, _ := reg.Snapshot().Value("lumos_synth_class_splits_total", ""); v != 1 {
		t.Fatalf("lumos_synth_class_splits_total = %v after a uniform degrade, want 1", v)
	}
}

// TestPriceClassSplitsStayZero: the guard never fires on the questions the
// benchmark asks. plan-cold's space plans on the campaign fabric, and the
// serve-plan golden request's degraded networks scale every tier alike.
func TestPriceClassSplitsStayZero(t *testing.T) {
	ctx := context.Background()
	m, err := topology.NewMapping(2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	base := parallel.DefaultConfig(model.GPT3_15B(), m)
	base.Microbatches = 8
	tk := New(WithConcurrency(2))
	reg := obs.NewRegistry()
	tk.RegisterMetrics(reg)
	st, err := tk.Prepare(ctx, base, 42)
	if err != nil {
		t.Fatal(err)
	}
	cold := planner.Space{PP: []int{1, 2, 4}, DP: []int{1, 2}, Microbatch: []int{2, 4}}
	if _, err := tk.PlanState(ctx, st, cold, planner.WithMemModel(memcost.Model{GPUMemBytes: 192 << 30, ZeRO: memcost.ZeROOptimizer})); err != nil {
		t.Fatal(err)
	}
	if _, err := tk.PlanState(ctx, st, servePlanSpace(),
		planner.WithStrategy(planner.BranchAndBound{}), planner.WithMemModel(memcost.Model{})); err != nil {
		t.Fatal(err)
	}
	if v, ok := reg.Snapshot().Value("lumos_synth_class_splits_total", ""); !ok || v != 0 {
		t.Fatalf("lumos_synth_class_splits_total = %v (present %v), want 0", v, ok)
	}
}

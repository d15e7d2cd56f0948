package manip

import (
	"fmt"
	"slices"
	"testing"

	"lumos/internal/collective"
	"lumos/internal/execgraph"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// commGraph is one two-rank all-reduce whose members ran 100 and 120 ns
// (the second waited), finalized so both record the 100 ns intrinsic
// duration.
func commGraph() *execgraph.Graph {
	g := &execgraph.Graph{NumRanks: 2, Groups: map[execgraph.GroupKey][]int32{}}
	for r := 0; r < 2; r++ {
		g.Tasks = append(g.Tasks, execgraph.Task{
			ID: int32(r), Kind: execgraph.TaskGPU, Rank: int32(r), Dur: trace.Dur(100 + 20*r),
			Comm: trace.CommAllReduce, CommBytes: 1 << 20, LaunchTask: -1,
		})
	}
	g.Groups[execgraph.GroupKey{CommID: 1}] = []int32{0, 1}
	g.FinalizeGroups()
	return g
}

// TestRetimeCountsChangedGroups checks the changed count a retime reports:
// a group repriced to its recorded intrinsic duration is unchanged, one
// whose duration moves is changed, and so is one without a single
// recorded intrinsic duration, since a replay of the unretimed graph would
// not run it for the synthesized duration.
func TestRetimeCountsChangedGroups(t *testing.T) {
	campaign := topology.H100Cluster(2)
	slower := topology.MustDegrade(campaign, 0.5)
	for _, tc := range []struct {
		name    string
		mutate  func(g *execgraph.Graph)
		fabric  topology.Fabric
		changed int
	}{
		{"campaign fabric", nil, campaign, 0},
		{"network-only degrade inside one node", nil, topology.MustDegrade(campaign, 1, 0.5), 0},
		{"every tier degraded", nil, slower, 1},
		{"members disagree on the intrinsic duration", func(g *execgraph.Graph) { g.Tasks[1].GroupDur = 120 }, campaign, 1},
		{"no intrinsic duration", func(g *execgraph.Graph) { g.Tasks[0].GroupDur, g.Tasks[1].GroupDur = 0, 0 }, campaign, 1},
	} {
		g := commGraph()
		if tc.mutate != nil {
			tc.mutate(g)
		}
		plan := NewCommRetimePlan(g, collective.NewPricer(campaign))
		dur := []trace.Dur{g.Tasks[0].Dur, g.Tasks[1].Dur}
		gdur := []trace.Dur{g.Tasks[0].GroupDur, g.Tasks[1].GroupDur}
		repriced, changed := plan.Retime(dur, gdur, collective.NewPricer(tc.fabric))
		if repriced != 1 || changed != tc.changed {
			t.Errorf("%s: repriced %d, changed %d; want 1 and %d", tc.name, repriced, changed, tc.changed)
		}
		if tc.changed == 0 && gdur[0] != g.Tasks[0].GroupDur {
			t.Errorf("%s: unchanged group retimed to %d, want its intrinsic %d", tc.name, gdur[0], g.Tasks[0].GroupDur)
		}
	}
}

// countingPricer counts the Cost calls it answers.
type countingPricer struct {
	collective.Pricer
	calls int
}

func (p *countingPricer) Cost(kind trace.CommKind, bytes int64, ranks []int) trace.Dur {
	p.calls++
	return p.Pricer.Cost(kind, bytes, ranks)
}

// TestRetimePricesEachSignatureOnce retimes the fig7 base synthesis
// (TP2×PP2×DP2, mb 8) onto a fabric with every tier halved. Its groups
// share few (kind, payload, sorted rank list) signatures, and the plan
// must call each pricer once per signature while writing exactly the
// columns the per-group rule gives: each group's synthesized duration
// scaled by its own target/campaign cost.
func TestRetimePricesEachSignatureOnce(t *testing.T) {
	cfg, profiled := base(t)
	campaign := topology.H100Cluster(8)
	g := predict(t, Request{Base: cfg, Target: cfg}, profiled, campaign).Graph
	basePricer := &countingPricer{Pricer: collective.NewPricer(campaign)}
	targetPricer := &countingPricer{Pricer: collective.NewPricer(topology.MustDegrade(campaign, 0.5))}

	wantDur, wantGroup := make([]trace.Dur, len(g.Tasks)), make([]trace.Dur, len(g.Tasks))
	for i := range g.Tasks {
		wantDur[i], wantGroup[i] = g.Tasks[i].Dur, g.Tasks[i].GroupDur
	}
	dur, groupDur := slices.Clone(wantDur), slices.Clone(wantGroup)
	signatures := map[string]bool{}
	for key, members := range g.Groups {
		ranks := slices.Clone(g.GroupRanks[key])
		if ranks == nil {
			for _, id := range members {
				ranks = append(ranks, int(g.Tasks[id].Rank))
			}
		}
		slices.Sort(ranks)
		t0 := &g.Tasks[members[0]]
		signatures[fmt.Sprint(t0.Comm, t0.CommBytes, ranks)] = true
		d := t0.GroupDur
		if d <= 0 {
			d = t0.Dur
		}
		base := basePricer.Pricer.Cost(t0.Comm, t0.CommBytes, ranks)
		if target := targetPricer.Pricer.Cost(t0.Comm, t0.CommBytes, ranks); base > 0 && target > 0 {
			d = trace.Dur(float64(d) * (float64(target) / float64(base)))
		}
		for _, id := range members {
			wantDur[id], wantGroup[id] = d, d
		}
	}
	if len(signatures) >= len(g.Groups) {
		t.Fatalf("%d groups with %d signatures; the graph must share signatures", len(g.Groups), len(signatures))
	}

	plan := NewCommRetimePlan(g, basePricer)
	if _, changed := plan.Retime(dur, groupDur, targetPricer); changed == 0 {
		t.Fatal("halving every tier changed no collective")
	}
	if basePricer.calls != len(signatures) || targetPricer.calls != len(signatures) {
		t.Fatalf("campaign pricer called %d times, target pricer %d; want one call per signature (%d, over %d groups)",
			basePricer.calls, targetPricer.calls, len(signatures), len(g.Groups))
	}
	if !slices.Equal(dur, wantDur) || !slices.Equal(groupDur, wantGroup) {
		t.Fatal("retimed columns differ from the per-group rule")
	}
}

package manip

import (
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

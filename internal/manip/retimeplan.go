package manip

import (
	"sort"

	"lumos/internal/collective"
	"lumos/internal/execgraph"
	"lumos/internal/trace"
)

// CommRetimePlan moves a synthesized graph's collectives to another fabric
// with one rule: each group's synthesized duration is scaled by the ratio
// of its analytic cost on the target fabric to its cost on the campaign
// fabric the graph was synthesized on. Measured and fitted durations are
// transferred alike, so a group priced by the library and one priced by
// the fitted model move by the same factor when the network changes.
//
// The plan precomputes everything that does not depend on the target
// fabric: member task IDs, the collective kind and payload, the sorted
// rank list, the synthesized duration and the campaign cost. Re-pricing
// one point then reduces to one target Cost call and a handful of column
// writes per group — no maps, no per-group allocation — feeding the
// compiled replay engine's flat duration arrays directly.
//
// A plan is immutable after construction and safe for concurrent Retime
// calls; it is built once per structural key alongside the compiled
// program.
type CommRetimePlan struct {
	groups  []retimeGroup
	members []int32
	ranks   []int
}

type retimeGroup struct {
	memberOff, memberN int32
	rankOff, rankN     int32
	// weight is how many world collectives the group stands for: its
	// price-class size, or 1 for a DP collective (see execgraph.Graph).
	weight int32
	kind   trace.CommKind
	bytes  int64
	synth  trace.Dur
	base   trace.Dur
	// intrinsic reports that synth is the recorded intrinsic duration
	// (GroupDur) of every member, the one a coupled replay of the
	// unretimed graph runs the group for.
	intrinsic bool
}

// NewCommRetimePlan lowers g's collective groups, pricing each on the
// campaign fabric with basePricer. A group with ranks the graph does not
// simulate is priced on its full rank list (Graph.GroupRanks), however
// few of its members are present.
func NewCommRetimePlan(g *execgraph.Graph, basePricer collective.Pricer) *CommRetimePlan {
	pl := &CommRetimePlan{}
	for key, members := range g.Groups {
		t0 := &g.Tasks[members[0]]
		gr := retimeGroup{
			memberOff: int32(len(pl.members)),
			memberN:   int32(len(members)),
			rankOff:   int32(len(pl.ranks)),
			kind:      t0.Comm,
			bytes:     t0.CommBytes,
			synth:     t0.GroupDur,
			intrinsic: t0.GroupDur > 0,
		}
		if gr.synth <= 0 {
			gr.synth = t0.Dur
		}
		pl.members = append(pl.members, members...)
		weight := 0
		for _, id := range members {
			r := int(g.Tasks[id].Rank)
			weight += g.RankWeight(r)
			pl.ranks = append(pl.ranks, r)
			gr.intrinsic = gr.intrinsic && g.Tasks[id].GroupDur == t0.GroupDur
		}
		if full := g.GroupRanks[key]; full != nil {
			pl.ranks = append(pl.ranks[:gr.rankOff], full...)
		}
		ranks := pl.ranks[gr.rankOff:]
		gr.rankN = int32(len(ranks))
		gr.weight = int32(weight / len(ranks))
		sort.Ints(ranks)
		gr.base = basePricer.Cost(t0.Comm, t0.CommBytes, ranks)
		pl.groups = append(pl.groups, gr)
	}
	return pl
}

// Retime writes target-fabric collective durations into the flat duration
// columns (len == task count): each group's synthesized duration scaled by
// target/campaign cost. A group whose cost is not positive on either
// fabric keeps its synthesized duration. It returns the repriced group
// count and how many of those groups changed duration, both counted over
// the world's collectives (a price-class representative's group counts
// once per replica it stands for): a group that keeps its recorded
// intrinsic duration counts as unchanged. When changed is zero, a
// coupled-collective replay of the retimed columns is the replay of the
// unretimed graph (a coupled group runs for its intrinsic duration), so
// callers may reuse that replay's makespan.
func (pl *CommRetimePlan) Retime(dur, groupDur []trace.Dur, pricer collective.Pricer) (repriced, changed int) {
	for gi := range pl.groups {
		gr := &pl.groups[gi]
		ranks := pl.ranks[gr.rankOff : gr.rankOff+gr.rankN]
		d := gr.synth
		if target := pricer.Cost(gr.kind, gr.bytes, ranks); gr.base > 0 && target > 0 {
			d = trace.Dur(float64(gr.synth) * (float64(target) / float64(gr.base)))
		}
		if d != gr.synth || !gr.intrinsic {
			changed += int(gr.weight)
		}
		for _, id := range pl.members[gr.memberOff : gr.memberOff+gr.memberN] {
			dur[id] = d
			groupDur[id] = d
		}
		repriced += int(gr.weight)
	}
	return repriced, changed
}

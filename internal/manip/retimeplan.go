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
	rankOff            int32
	kind               trace.CommKind
	bytes              int64
	synth              trace.Dur
	base               trace.Dur
}

// NewCommRetimePlan lowers g's collective groups, pricing each on the
// campaign fabric with basePricer.
func NewCommRetimePlan(g *execgraph.Graph, basePricer collective.Pricer) *CommRetimePlan {
	pl := &CommRetimePlan{}
	for _, members := range g.Groups {
		if len(members) < 2 {
			continue
		}
		t0 := &g.Tasks[members[0]]
		gr := retimeGroup{
			memberOff: int32(len(pl.members)),
			memberN:   int32(len(members)),
			rankOff:   int32(len(pl.ranks)),
			kind:      t0.Comm,
			bytes:     t0.CommBytes,
			synth:     t0.GroupDur,
		}
		if gr.synth <= 0 {
			gr.synth = t0.Dur
		}
		pl.members = append(pl.members, members...)
		for _, id := range members {
			pl.ranks = append(pl.ranks, int(g.Tasks[id].Rank))
		}
		ranks := pl.ranks[gr.rankOff:]
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
// count.
func (pl *CommRetimePlan) Retime(dur, groupDur []trace.Dur, pricer collective.Pricer) int {
	for gi := range pl.groups {
		gr := &pl.groups[gi]
		ranks := pl.ranks[gr.rankOff : gr.rankOff+gr.memberN]
		d := gr.synth
		if target := pricer.Cost(gr.kind, gr.bytes, ranks); gr.base > 0 && target > 0 {
			d = trace.Dur(float64(gr.synth) * (float64(target) / float64(gr.base)))
		}
		for _, id := range pl.members[gr.memberOff : gr.memberOff+gr.memberN] {
			dur[id] = d
			groupDur[id] = d
		}
	}
	return len(pl.groups)
}

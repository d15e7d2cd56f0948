package manip

import (
	"sort"
	"strconv"

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
// fabric: member task IDs, the synthesized duration, and each distinct
// collective signature (kind, payload and sorted rank list) with its
// campaign cost. A graph's groups share few signatures (the fig7 base's
// 1,682 groups have 13), so re-pricing one point reduces to one target
// Cost call per signature and a handful of column writes per group — no
// maps, no per-group allocation — feeding the compiled replay engine's
// flat duration arrays directly.
//
// A plan is immutable after construction and safe for concurrent Retime
// calls; it is built once per structural key alongside the compiled
// program.
type CommRetimePlan struct {
	sigs []retimeSig
	// groups are ordered by signature, so each signature's groups are
	// contiguous.
	groups  []retimeGroup
	members []int32
	ranks   []int
}

// retimeSig is one collective signature: every group that shares it costs
// the same on any fabric.
type retimeSig struct {
	kind             trace.CommKind
	bytes            int64
	rankOff, rankN   int32
	groupOff, groupN int32
	base             trace.Dur
}

type retimeGroup struct {
	memberOff, memberN int32
	sig                int32
	// weight is how many world collectives the group stands for: its
	// price-class size, or 1 for a DP collective (see execgraph.Graph).
	weight int32
	synth  trace.Dur
	// intrinsic reports that synth is the recorded intrinsic duration
	// (GroupDur) of every member, the one a coupled replay of the
	// unretimed graph runs the group for.
	intrinsic bool
}

// NewCommRetimePlan lowers g's collective groups, pricing each distinct
// signature once on the campaign fabric with basePricer. A group with
// ranks the graph does not simulate is priced on its full rank list
// (Graph.GroupRanks), however few of its members are present.
func NewCommRetimePlan(g *execgraph.Graph, basePricer collective.Pricer) *CommRetimePlan {
	pl := &CommRetimePlan{}
	index := map[string]int32{}
	var ranks []int
	var key []byte
	for gk, members := range g.Groups {
		t0 := &g.Tasks[members[0]]
		gr := retimeGroup{
			memberOff: int32(len(pl.members)),
			memberN:   int32(len(members)),
			synth:     t0.GroupDur,
			intrinsic: t0.GroupDur > 0,
		}
		if gr.synth <= 0 {
			gr.synth = t0.Dur
		}
		pl.members = append(pl.members, members...)
		ranks = ranks[:0]
		weight := 0
		for _, id := range members {
			r := int(g.Tasks[id].Rank)
			weight += g.RankWeight(r)
			ranks = append(ranks, r)
			gr.intrinsic = gr.intrinsic && g.Tasks[id].GroupDur == t0.GroupDur
		}
		if full := g.GroupRanks[gk]; full != nil {
			ranks = append(ranks[:0], full...)
		}
		gr.weight = int32(weight / len(ranks))
		sort.Ints(ranks)

		key = strconv.AppendInt(key[:0], int64(t0.Comm), 10)
		key = strconv.AppendInt(append(key, '/'), t0.CommBytes, 10)
		for _, r := range ranks {
			key = strconv.AppendInt(append(key, ','), int64(r), 10)
		}
		si, ok := index[string(key)]
		if !ok {
			si = int32(len(pl.sigs))
			index[string(key)] = si
			pl.sigs = append(pl.sigs, retimeSig{
				kind:    t0.Comm,
				bytes:   t0.CommBytes,
				rankOff: int32(len(pl.ranks)),
				rankN:   int32(len(ranks)),
				base:    basePricer.Cost(t0.Comm, t0.CommBytes, ranks),
			})
			pl.ranks = append(pl.ranks, ranks...)
		}
		gr.sig = si
		pl.groups = append(pl.groups, gr)
	}
	sort.Slice(pl.groups, func(i, j int) bool { return pl.groups[i].sig < pl.groups[j].sig })
	for gi := range pl.groups {
		s := &pl.sigs[pl.groups[gi].sig]
		if s.groupN == 0 {
			s.groupOff = int32(gi)
		}
		s.groupN++
	}
	return pl
}

// Retime writes target-fabric collective durations into the flat duration
// columns (len == task count): each group's synthesized duration scaled by
// target/campaign cost, with each signature priced once. A group whose
// cost is not positive on either fabric keeps its synthesized duration. It
// returns the repriced group count and how many of those groups changed
// duration, both counted over the world's collectives (a price-class
// representative's group counts once per replica it stands for): a group
// that keeps its recorded intrinsic duration counts as unchanged. When
// changed is zero, a coupled-collective replay of the retimed columns is
// the replay of the unretimed graph (a coupled group runs for its
// intrinsic duration), so callers may reuse that replay's makespan.
func (pl *CommRetimePlan) Retime(dur, groupDur []trace.Dur, pricer collective.Pricer) (repriced, changed int) {
	for si := range pl.sigs {
		s := &pl.sigs[si]
		target := pricer.Cost(s.kind, s.bytes, pl.ranks[s.rankOff:s.rankOff+s.rankN])
		for _, gr := range pl.groups[s.groupOff : s.groupOff+s.groupN] {
			d := gr.synth
			if s.base > 0 && target > 0 {
				d = trace.Dur(float64(gr.synth) * (float64(target) / float64(s.base)))
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
	}
	return repriced, changed
}

// HierPricer: the multi-tier pricing backend. It binds any topology.Fabric
// — the two-tier H100 testbed, NVLink-domain racks, leaf/spine networks,
// degraded fabrics — and prices a collective either at the bottleneck tier
// the group spans (NCCL's flat ring/tree, the calibrated default) or as a
// per-tier phase composition (NCCL's hierarchical algorithms: reduce-scatter
// and all-gather inside each domain at domain bandwidth, a ring across
// domain leaders at the spanning tier).
package collective

import (
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// Compose selects how a HierPricer combines fabric tiers.
type Compose uint8

const (
	// ComposeBottleneck prices a collective as one ring/tree pass at the
	// outermost tier the group spans: NCCL's default flat algorithm family,
	// and the model every prediction is calibrated under.
	ComposeBottleneck Compose = iota
	// ComposePhased composes per-tier phases: payload is reduce-scattered
	// inside each innermost domain at domain bandwidth, exchanged across
	// domain leaders at the spanning tier, and all-gathered back. It models
	// NCCL's hierarchical algorithms and is optimistic relative to
	// ComposeBottleneck whenever inner tiers are faster.
	ComposePhased
)

// HierPricer prices collectives on a hierarchical fabric.
type HierPricer struct {
	Fabric topology.Fabric

	// LaunchOverhead is the fixed per-collective kernel startup cost in ns.
	LaunchOverhead float64
	// BusEfficiency derates achievable bus bandwidth.
	BusEfficiency float64
	// Compose selects the tier-composition policy.
	Compose Compose
}

// NewPricer returns the default pricer for a fabric: bottleneck-composed,
// with NCCL-like constants (6 µs launch overhead, 88% bus efficiency).
func NewPricer(f topology.Fabric) *HierPricer {
	return &HierPricer{Fabric: f, LaunchOverhead: 6_000, BusEfficiency: 0.88}
}

// NewPhasedPricer returns a hierarchical pricer using per-tier phase
// composition.
func NewPhasedPricer(f topology.Fabric) *HierPricer {
	p := NewPricer(f)
	p.Compose = ComposePhased
	return p
}

// tierParams resolves tier l's effective bandwidth (bytes/ns) and latency.
func (h *HierPricer) tierParams(l int) (bw, lat float64) {
	link := h.Fabric.Tier(l)
	return effectiveBW(link.BW, h.BusEfficiency), link.Latency
}

// Cost implements Pricer.
func (h *HierPricer) Cost(kind trace.CommKind, bytes int64, ranks []int) trace.Dur {
	if kind == trace.CommSend || kind == trace.CommRecv {
		// A p2p transfer is src→dst regardless of extra metadata ranks;
		// degenerate metadata prices a default neighbor transfer.
		if len(ranks) >= 2 {
			ranks = ranks[:2]
		} else {
			ranks = []int{0, 1}
		}
	}
	n := len(ranks)
	if n <= 1 || bytes <= 0 {
		return trace.Dur(h.LaunchOverhead)
	}
	tier := h.Fabric.TierOf(ranks)
	if h.Compose == ComposePhased && tier > 0 {
		if t, ok := h.phasedTime(kind, bytes, ranks, tier); ok {
			return trace.Dur(h.LaunchOverhead + t)
		}
	}
	return trace.Dur(h.LaunchOverhead + h.bottleneckTime(kind, bytes, n, tier))
}

// bottleneckTime prices the primitive as one pass at the spanning tier.
func (h *HierPricer) bottleneckTime(kind trace.CommKind, bytes int64, n, tier int) float64 {
	bw, lat := h.tierParams(tier)
	switch kind {
	case trace.CommAllReduce:
		return allReduceTime(bytes, n, bw, lat)
	case trace.CommAllGather, trace.CommReduceScatter, trace.CommAllToAll:
		return reduceScatterTime(bytes, n, bw, lat)
	case trace.CommBroadcast:
		return broadcastTime(bytes, n, bw, lat)
	case trace.CommSend, trace.CommRecv:
		return p2pTime(bytes, bw, lat)
	}
	return 0
}

// subgroups buckets the group by its domains one tier below the spanning
// tier, returning the domain count and the largest per-domain membership.
func (h *HierPricer) subgroups(ranks []int, tier int) (domains, largest int) {
	size := h.Fabric.TierSize(tier - 1)
	if size <= 0 {
		return len(ranks), 1
	}
	counts := map[int]int{}
	for _, r := range ranks {
		counts[r/size]++
	}
	for _, c := range counts {
		if c > largest {
			largest = c
		}
	}
	return len(counts), largest
}

// phasedTime composes the hierarchical algorithm between the inner tier's
// domains and the spanning tier: reduce-scatter S over k ranks inside each
// domain, ring across the m domain leaders with the reduced S/k shard,
// all-gather back. ok is false for primitives (or degenerate groupings)
// where the decomposition does not apply; callers fall back to bottleneck
// pricing.
func (h *HierPricer) phasedTime(kind trace.CommKind, bytes int64, ranks []int, tier int) (t float64, ok bool) {
	m, k := h.subgroups(ranks, tier)
	if m <= 1 || k <= 1 {
		// One domain (shouldn't span) or one rank per domain: the cross-
		// domain ring over all ranks is the whole story.
		return 0, false
	}
	innerBW, innerLat := h.tierParams(tier - 1)
	outerBW, outerLat := h.tierParams(tier)
	shard := bytes / int64(k)
	if shard < 1 {
		shard = 1
	}
	switch kind {
	case trace.CommAllReduce:
		intra := reduceScatterTime(bytes, k, innerBW, innerLat)
		inter := allReduceTime(shard, m, outerBW, outerLat)
		return 2*intra + inter, true
	case trace.CommAllGather, trace.CommReduceScatter:
		intra := reduceScatterTime(bytes, k, innerBW, innerLat)
		inter := reduceScatterTime(shard, m, outerBW, outerLat)
		return intra + inter, true
	}
	// Broadcast, p2p and all-to-all gain nothing from domain phases.
	return 0, false
}

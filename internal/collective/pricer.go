// HierPricer: the multi-tier pricing backend. It binds any topology.Fabric
// — the two-tier H100 testbed, NVLink-domain racks, leaf/spine networks,
// degraded fabrics — and prices a collective as one pass at the bottleneck
// tier the group spans (NCCL's flat ring/tree, the model every prediction
// is calibrated under).
package collective

import (
	"lumos/internal/topology"
	"lumos/internal/trace"
)

// HierPricer prices collectives on a hierarchical fabric.
type HierPricer struct {
	Fabric topology.Fabric

	// LaunchOverhead is the fixed per-collective kernel startup cost in ns.
	LaunchOverhead float64
	// BusEfficiency derates achievable bus bandwidth.
	BusEfficiency float64
}

// NewPricer returns the pricer every fabric is priced by, with NCCL-like
// constants (6 µs launch overhead, 88% bus efficiency).
func NewPricer(f topology.Fabric) *HierPricer {
	return &HierPricer{Fabric: f, LaunchOverhead: 6_000, BusEfficiency: 0.88}
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
	return trace.Dur(h.LaunchOverhead + h.bottleneckTime(kind, bytes, n, h.Fabric.TierOf(ranks)))
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

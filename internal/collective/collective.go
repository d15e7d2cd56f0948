// Package collective prices NCCL-style communication primitives on a
// topology.Fabric. These cost models stand in for the paper's production
// RoCE fabric and for the network simulators (ASTRA-sim, analytical models)
// the paper cites as alternative backends: given a primitive, payload size,
// and participant set, they return a duration.
//
// The one backend is HierPricer (NewPricer), an alpha-beta model over any
// fabric hierarchy (the paper's two-tier H100 testbed, NVLink domains,
// leaf/spine): it prices a ring all-reduce of S bytes over n ranks as
// 2(n-1)/n·S through the bottleneck tier the group spans plus (n-1) hop
// latencies per phase. What-ifs on degraded networks scale per-tier
// bandwidth on the fabric (topology.Degrade), not in the pricer.
package collective

import (
	"math"

	"lumos/internal/trace"
)

// Pricer prices NCCL-style communication primitives: given a primitive,
// payload size, and participant set, it returns a duration. HierPricer is
// the production implementation; implementations must be safe for
// concurrent use.
type Pricer interface {
	Cost(kind trace.CommKind, bytes int64, ranks []int) trace.Dur
}

// --- Alpha-beta formulas ---------------------------------------------------
//
// The pricer resolves a group (or one phase of it) to a (bw, lat) pair —
// bandwidth in bytes per NANOSECOND so size/bw expressions yield trace
// durations directly — and applies these closed forms.

// allReduceTime is the faster of ring and pipelined tree, excluding launch
// overhead.
func allReduceTime(bytes int64, n int, bw, lat float64) float64 {
	s := float64(bytes)
	ring := 2 * float64(n-1) / float64(n) * s / bw
	ringLat := 2 * float64(n-1) * lat
	tree := 2 * s / bw // pipelined up+down through tree
	treeLat := 2 * math.Ceil(math.Log2(float64(n))) * lat
	return math.Min(ring+ringLat, tree+treeLat)
}

// reduceScatterTime covers reduce-scatter and all-gather (identical data
// motion) and all-to-all.
func reduceScatterTime(bytes int64, n int, bw, lat float64) float64 {
	return float64(n-1)/float64(n)*float64(bytes)/bw + float64(n-1)*lat
}

// broadcastTime is a pipelined binomial broadcast.
func broadcastTime(bytes int64, n int, bw, lat float64) float64 {
	return float64(bytes)/bw + math.Ceil(math.Log2(float64(n)))*lat
}

// p2pTime is a single point-to-point transfer.
func p2pTime(bytes int64, bw, lat float64) float64 {
	return float64(bytes)/bw + lat
}

// effectiveBW derates a link rate to achievable bus bandwidth and converts
// to bytes/ns, guarding degenerate inputs.
func effectiveBW(bwPerSec, busEfficiency float64) float64 {
	bw := bwPerSec * busEfficiency / 1e9
	if !(bw > 0) { // non-positive or NaN
		bw = 1e-9
	}
	return bw
}

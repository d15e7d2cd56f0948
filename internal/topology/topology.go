// Package topology models the interconnect fabrics deployments run on:
// the paper's evaluation testbed — servers of 8 NVIDIA H100-class GPUs
// joined by NVLink inside a node and a RoCE data-center network
// (8x400 Gbps per host) across nodes — as a two-tier HierFabric, alongside
// NVLink-domain and oversubscribed leaf/spine presets (see fabric.go). The
// package also owns the 3D-parallel rank mapping (tensor innermost,
// pipeline middle, data outermost — the Megatron-LM convention), so that
// communication groups can be classified by the fabric tier they span.
package topology

import "fmt"

// Mapping is a 3D-parallel rank layout: tensor parallel innermost (so TP
// groups sit inside a node and use NVLink), pipeline next, data outermost.
type Mapping struct {
	TP, PP, DP int
}

// NewMapping validates and returns a rank mapping.
func NewMapping(tp, pp, dp int) (Mapping, error) {
	if tp < 1 || pp < 1 || dp < 1 {
		return Mapping{}, fmt.Errorf("topology: parallel degrees must be >= 1, got TP=%d PP=%d DP=%d", tp, pp, dp)
	}
	return Mapping{TP: tp, PP: pp, DP: dp}, nil
}

// WorldSize returns TP*PP*DP.
func (m Mapping) WorldSize() int { return m.TP * m.PP * m.DP }

// Rank composes a global rank from (dp, pp, tp) coordinates.
func (m Mapping) Rank(dp, pp, tp int) int {
	return dp*m.PP*m.TP + pp*m.TP + tp
}

// Coords decomposes a global rank into (dp, pp, tp).
func (m Mapping) Coords(rank int) (dp, pp, tp int) {
	tp = rank % m.TP
	pp = (rank / m.TP) % m.PP
	dp = rank / (m.TP * m.PP)
	return
}

// TPGroup returns the tensor-parallel group containing rank, in tp order.
func (m Mapping) TPGroup(rank int) []int {
	dp, pp, _ := m.Coords(rank)
	out := make([]int, m.TP)
	for t := 0; t < m.TP; t++ {
		out[t] = m.Rank(dp, pp, t)
	}
	return out
}

// DPGroup returns the data-parallel group containing rank, in dp order.
func (m Mapping) DPGroup(rank int) []int {
	_, pp, tp := m.Coords(rank)
	out := make([]int, m.DP)
	for d := 0; d < m.DP; d++ {
		out[d] = m.Rank(d, pp, tp)
	}
	return out
}

// GroupID assigns a stable communicator ID to each distinct group kind and
// group instance, so collective kernels can be matched across ranks.
// Kind: 0=TP, 1=DP, 2=PP(p2p pair), 3=embedding tie. IDs are always
// nonzero: 0 is the "no communicator" sentinel in trace metadata.
func (m Mapping) GroupID(kind, instance int) int64 {
	return int64(kind+1)*1_000_000 + int64(instance)
}

// TPGroupID returns the communicator ID of rank's TP group.
func (m Mapping) TPGroupID(rank int) int64 {
	dp, pp, _ := m.Coords(rank)
	return m.GroupID(0, dp*m.PP+pp)
}

// DPGroupID returns the communicator ID of rank's DP group.
func (m Mapping) DPGroupID(rank int) int64 {
	_, pp, tp := m.Coords(rank)
	return m.GroupID(1, pp*m.TP+tp)
}

// PPPairID returns the communicator ID of the p2p channel between rank and
// its downstream neighbor (stage pp → pp+1 within the same dp/tp slice).
func (m Mapping) PPPairID(rank int) int64 {
	dp, pp, tp := m.Coords(rank)
	return m.GroupID(2, (dp*m.PP+pp)*m.TP+tp)
}

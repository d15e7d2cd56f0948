package topology

import (
	"testing"
	"testing/quick"
)

func TestH100Cluster(t *testing.T) {
	c := H100Cluster(512)
	if c.FabricName() != "flat" || c.Tiers() != 2 {
		t.Fatalf("H100Cluster: %q with %d tiers, want \"flat\" with 2", c.FabricName(), c.Tiers())
	}
	if nodes := c.Capacity() / c.TierSize(0); nodes != 64 {
		t.Fatalf("512 GPUs at 8/node = %d nodes, want 64", nodes)
	}
	sameNode := func(ranks ...int) bool { return c.TierOf(ranks) == 0 }
	if !sameNode(0, 3, 7) || !sameNode(504, 511) {
		t.Fatal("0,3,7 share node 0 and 504,511 share node 63")
	}
	if sameNode(7, 8) {
		t.Fatal("7 and 8 are on different nodes")
	}
	if !sameNode() {
		t.Fatal("empty group is trivially same-node")
	}
	if c.Tier(c.TierOf([]int{0, 1})) != c.Tier(0) {
		t.Fatal("intra-node group should use NVLink numbers")
	}
	if c.Tier(c.TierOf([]int{0, 8})).BW != 42e9 {
		t.Fatal("cross-node group should use network numbers")
	}
}

func TestNewMappingValidation(t *testing.T) {
	if _, err := NewMapping(0, 1, 1); err == nil {
		t.Fatal("TP=0 must be rejected")
	}
	m, err := NewMapping(2, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if m.WorldSize() != 64 {
		t.Fatalf("world = %d", m.WorldSize())
	}
}

func TestRankCoordsRoundTrip(t *testing.T) {
	f := func(tpSel, ppSel, dpSel uint8) bool {
		m := Mapping{TP: 1 + int(tpSel%8), PP: 1 + int(ppSel%8), DP: 1 + int(dpSel%8)}
		for r := 0; r < m.WorldSize(); r++ {
			dp, pp, tp := m.Coords(r)
			if m.Rank(dp, pp, tp) != r {
				return false
			}
			if tp < 0 || tp >= m.TP || pp < 0 || pp >= m.PP || dp < 0 || dp >= m.DP {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestGroups(t *testing.T) {
	m := Mapping{TP: 2, PP: 2, DP: 2} // ranks 0..7
	// TP innermost: rank = dp*4 + pp*2 + tp
	if g := m.TPGroup(5); len(g) != 2 || g[0] != 4 || g[1] != 5 {
		t.Fatalf("TPGroup(5) = %v", g)
	}
	if g := m.DPGroup(3); len(g) != 2 || g[0] != 3 || g[1] != 7 {
		t.Fatalf("DPGroup(3) = %v", g)
	}
}

func TestPropertyGroupsPartitionWorld(t *testing.T) {
	// Every rank appears in exactly one TP group instance, and group members
	// agree on the group.
	f := func(tpSel, ppSel, dpSel uint8) bool {
		m := Mapping{TP: 1 + int(tpSel%4), PP: 1 + int(ppSel%4), DP: 1 + int(dpSel%4)}
		seen := map[int]int{}
		for r := 0; r < m.WorldSize(); r++ {
			for _, member := range m.TPGroup(r) {
				if member == r {
					seen[r]++
				}
			}
			// All members must report the same group ID.
			id := m.TPGroupID(r)
			for _, member := range m.TPGroup(r) {
				if m.TPGroupID(member) != id {
					return false
				}
			}
		}
		for r := 0; r < m.WorldSize(); r++ {
			if seen[r] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGroupIDsDistinct(t *testing.T) {
	m := Mapping{TP: 2, PP: 2, DP: 2}
	ids := map[int64]string{}
	for r := 0; r < m.WorldSize(); r++ {
		for name, id := range map[string]int64{
			"tp": m.TPGroupID(r), "dp": m.DPGroupID(r), "pp": m.PPPairID(r),
		} {
			if prev, ok := ids[id]; ok && prev != name {
				t.Fatalf("group ID %d used by both %s and %s", id, prev, name)
			}
			ids[id] = name
		}
	}
}

func TestTPGroupIsIntraNode(t *testing.T) {
	// With TP ≤ 8 and TP innermost, TP groups must never span nodes — the
	// property the Megatron rank order exists to guarantee.
	c := H100Cluster(64)
	for _, tp := range []int{2, 4, 8} {
		m := Mapping{TP: tp, PP: 2, DP: 64 / tp / 2}
		for r := 0; r < m.WorldSize(); r++ {
			if c.TierOf(m.TPGroup(r)) != 0 {
				t.Fatalf("TP=%d group of rank %d spans nodes: %v", tp, r, m.TPGroup(r))
			}
		}
	}
}

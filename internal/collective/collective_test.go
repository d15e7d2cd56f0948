package collective

import (
	"testing"
	"testing/quick"

	"lumos/internal/topology"
	"lumos/internal/trace"
)

// pricer512 is the production pricer on the paper's testbed at 512 GPUs.
func pricer512() *HierPricer { return NewPricer(topology.H100Cluster(512)) }

func intraRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func interRanks(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i * 8 // one rank per node
	}
	return out
}

func TestAllReduceScaling(t *testing.T) {
	p := pricer512()
	const size = 100 << 20
	// Intra-node must be much faster than inter-node at equal size/group.
	intra := p.Cost(trace.CommAllReduce, size, intraRanks(8))
	inter := p.Cost(trace.CommAllReduce, size, interRanks(8))
	if intra >= inter {
		t.Fatalf("intra-node AR (%d) should beat inter-node (%d)", intra, inter)
	}
	// Cost grows with message size.
	if p.Cost(trace.CommAllReduce, size, interRanks(8)) <= p.Cost(trace.CommAllReduce, size/4, interRanks(8)) {
		t.Fatal("all-reduce must grow with payload")
	}
	// Degenerate group is launch-overhead only.
	if d := p.Cost(trace.CommAllReduce, size, []int{3}); d != trace.Dur(p.LaunchOverhead) {
		t.Fatalf("single-rank AR = %d", d)
	}
}

func TestAllReduceRingBandwidthBound(t *testing.T) {
	// For large payloads the ring bound 2(n-1)/n · S / bw dominates; the
	// model must stay within a small factor of it.
	p := pricer512()
	const size = 1 << 30
	n := 8
	d := float64(p.Cost(trace.CommAllReduce, size, interRanks(n)))
	bw := p.Fabric.Tier(1).BW * p.BusEfficiency / 1e9
	ideal := 2 * float64(n-1) / float64(n) * float64(size) / bw
	if d < ideal {
		t.Fatalf("model (%f ns) beats the bandwidth bound (%f ns)", d, ideal)
	}
	if d > 1.5*ideal {
		t.Fatalf("model (%f ns) is far from the bandwidth bound (%f ns)", d, ideal)
	}
}

func TestSmallMessageLatencyBound(t *testing.T) {
	// Tiny payloads should be dominated by latency terms, and the tree
	// algorithm should keep growth sublinear in group size.
	p := pricer512()
	d8 := p.Cost(trace.CommAllReduce, 1024, interRanks(8))
	d64 := p.Cost(trace.CommAllReduce, 1024, interRanks(64))
	if d64 > 4*d8 {
		t.Fatalf("small-message AR grew too fast: n=8 %d, n=64 %d", d8, d64)
	}
}

func TestPrimitiveRelations(t *testing.T) {
	p := pricer512()
	const size = 64 << 20
	ranks := interRanks(16)
	ar := p.Cost(trace.CommAllReduce, size, ranks)
	ag := p.Cost(trace.CommAllGather, size, ranks)
	rs := p.Cost(trace.CommReduceScatter, size, ranks)
	if ag >= ar || rs >= ar {
		t.Fatalf("all-gather (%d) and reduce-scatter (%d) move half the data of all-reduce (%d)", ag, rs, ar)
	}
	// AG and RS have identical data motion.
	if ag != rs {
		t.Fatalf("all-gather (%d) != reduce-scatter (%d)", ag, rs)
	}
}

func TestP2P(t *testing.T) {
	p := pricer512()
	const size = 32 << 20
	same := p.Cost(trace.CommSend, size, []int{0, 1})
	cross := p.Cost(trace.CommSend, size, []int{0, 8})
	if same >= cross {
		t.Fatalf("NVLink p2p (%d) should beat RoCE p2p (%d)", same, cross)
	}
}

func TestCostDispatch(t *testing.T) {
	p := pricer512()
	ranks := intraRanks(4)
	kinds := []trace.CommKind{
		trace.CommAllReduce, trace.CommAllGather, trace.CommReduceScatter,
		trace.CommBroadcast, trace.CommSend, trace.CommRecv, trace.CommAllToAll,
	}
	for _, k := range kinds {
		if d := p.Cost(k, 1<<20, ranks); d <= 0 {
			t.Errorf("Cost(%v) = %d, want > 0", k, d)
		}
	}
	if d := p.Cost(trace.CommNone, 1<<20, ranks); d != trace.Dur(p.LaunchOverhead) {
		t.Errorf("unknown kind should cost launch overhead, got %d", d)
	}
}

func TestPropertyMonotonicity(t *testing.T) {
	p := pricer512()
	// Cost is monotone in payload for every primitive and group.
	f := func(sizeSel uint32, nSel uint8, inter bool) bool {
		size := int64(sizeSel%(1<<20)) + 1
		n := 2 + int(nSel%14)
		var ranks []int
		if inter {
			ranks = interRanks(n)
		} else {
			ranks = intraRanks(min(n, 8))
		}
		return p.Cost(trace.CommAllReduce, 2*size, ranks) >= p.Cost(trace.CommAllReduce, size, ranks) &&
			p.Cost(trace.CommAllGather, 2*size, ranks) >= p.Cost(trace.CommAllGather, size, ranks) &&
			p.Cost(trace.CommBroadcast, 2*size, ranks) >= p.Cost(trace.CommBroadcast, size, ranks)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBusBandwidthSanity(t *testing.T) {
	p := pricer512()
	// Large intra-node all-reduce should achieve within [50%, 100%] of the
	// derated NVLink rate.
	bb := busBandwidth(p, 1<<30, intraRanks(8))
	lim := p.Fabric.Tier(0).BW * p.BusEfficiency
	if bb > lim {
		t.Fatalf("bus bandwidth %.1f GB/s exceeds link ceiling %.1f GB/s", bb/1e9, lim/1e9)
	}
	if bb < 0.5*lim {
		t.Fatalf("bus bandwidth %.1f GB/s is unrealistically low (ceiling %.1f)", bb/1e9, lim/1e9)
	}
	if busBandwidth(p, 1<<20, []int{0}) != 0 {
		t.Fatal("degenerate group has no bus bandwidth")
	}
}

// busBandwidth is NCCL's algbw-normalized "bus bandwidth" (bytes/sec) of an
// all-reduce of the given size: ring data motion over the priced duration.
func busBandwidth(p Pricer, bytes int64, ranks []int) float64 {
	n := len(ranks)
	d := p.Cost(trace.CommAllReduce, bytes, ranks)
	if n <= 1 || d <= 0 {
		return 0
	}
	algBytes := 2 * float64(n-1) / float64(n) * float64(bytes)
	return algBytes / (float64(d) / 1e9)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

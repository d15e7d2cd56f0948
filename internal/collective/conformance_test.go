package collective

import (
	"math"
	"testing"

	"lumos/internal/topology"
	"lumos/internal/trace"
)

// pricerBackend describes one Pricer implementation under conformance test:
// the pricer, group constructors for its innermost and a spanning tier, and
// a degradation constructor.
type pricerBackend struct {
	name string
	p    Pricer
	// intra returns n ranks inside one innermost domain; inter returns n
	// ranks spanning at least one tier boundary.
	intra, inter func(n int) []int
	// degrade returns the pricer with per-tier bandwidth factors applied,
	// or the construction-time rejection for invalid factors.
	degrade func(factors ...float64) (Pricer, error)
}

// mustDegrade unwraps a backend's degrade constructor for factors the test
// knows are valid.
func mustDegrade(t *testing.T, b pricerBackend, factors ...float64) Pricer {
	t.Helper()
	p, err := b.degrade(factors...)
	if err != nil {
		t.Fatalf("%s: degrade(%v): %v", b.name, factors, err)
	}
	return p
}

func strided(stride int) func(n int) []int {
	return func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i * stride
		}
		return out
	}
}

// Model is the reference the production pricer is checked against: the
// alpha-beta model of the paper's flat testbed, written directly against
// its two link pairs. A group whose ranks all sit on one node (rank /
// GPUsPerNode) uses the NVLink pair, any other group the network pair.
type Model struct {
	GPUsPerNode int
	// IntraNodeBW and InterNodeBW are per-GPU link rates in bytes/sec;
	// IntraNodeLatency and InterNodeLatency are per-hop latencies in ns.
	IntraNodeBW, InterNodeBW           float64
	IntraNodeLatency, InterNodeLatency float64
	// LaunchOverhead is the fixed per-collective cost in ns;
	// BusEfficiency derates achievable bus bandwidth.
	LaunchOverhead, BusEfficiency float64
}

// NewModel returns the reference model of the paper's testbed: 8-GPU
// nodes, NVLink 360 GB/s and 4 µs, network 42 GB/s and 12 µs.
func NewModel() *Model {
	return &Model{
		GPUsPerNode: 8,
		IntraNodeBW: 360e9, InterNodeBW: 42e9,
		IntraNodeLatency: 4_000, InterNodeLatency: 12_000,
		LaunchOverhead: 6_000, BusEfficiency: 0.88,
	}
}

// degraded scales the link rates the way topology.Degrade scales tiers:
// the NVLink pair takes factors[0], the network pair factors[1] (or
// factors[0] when only one is given). Factors topology.Degrade rejects on
// the testbed are rejected here too.
func (m *Model) degraded(factors ...float64) (*Model, error) {
	if _, err := topology.Degrade(topology.H100Cluster(512), factors...); err != nil {
		return nil, err
	}
	cp := *m
	if len(factors) > 0 {
		inter := factors[0]
		if len(factors) > 1 {
			inter = factors[1]
		}
		cp.IntraNodeBW *= factors[0]
		cp.InterNodeBW *= inter
	}
	return &cp, nil
}

// groupParams resolves a group's effective bandwidth (bytes/ns) and
// latency by the same-node rule.
func (m *Model) groupParams(ranks []int) (bw, lat float64) {
	for _, r := range ranks {
		if r/m.GPUsPerNode != ranks[0]/m.GPUsPerNode {
			return effectiveBW(m.InterNodeBW, m.BusEfficiency), m.InterNodeLatency
		}
	}
	return effectiveBW(m.IntraNodeBW, m.BusEfficiency), m.IntraNodeLatency
}

// Cost implements Pricer. A send/recv prices ranks[0]→ranks[1] (0→1 when
// fewer are given).
func (m *Model) Cost(kind trace.CommKind, bytes int64, ranks []int) trace.Dur {
	if kind == trace.CommSend || kind == trace.CommRecv {
		if len(ranks) < 2 {
			ranks = []int{0, 1}
		}
		ranks = ranks[:2]
	}
	n := len(ranks)
	if n <= 1 || bytes <= 0 {
		return trace.Dur(m.LaunchOverhead)
	}
	bw, lat := m.groupParams(ranks)
	var t float64
	switch kind {
	case trace.CommAllReduce:
		t = allReduceTime(bytes, n, bw, lat)
	case trace.CommAllGather, trace.CommReduceScatter, trace.CommAllToAll:
		t = reduceScatterTime(bytes, n, bw, lat)
	case trace.CommBroadcast:
		t = broadcastTime(bytes, n, bw, lat)
	case trace.CommSend, trace.CommRecv:
		t = p2pTime(bytes, bw, lat)
	}
	return trace.Dur(m.LaunchOverhead + t)
}

// degradeWith returns a backend's degrade constructor: topology.Degrade on
// the fabric, then NewPricer over the degraded fabric.
func degradeWith(f topology.Fabric) func(...float64) (Pricer, error) {
	return func(factors ...float64) (Pricer, error) {
		d, err := topology.Degrade(f, factors...)
		if err != nil {
			return nil, err
		}
		return NewPricer(d), nil
	}
}

// backends enumerates the production pricer on the flat preset and on
// nvl72, plus the reference Model; the conformance suite runs each property
// against all of them.
func backends() []pricerBackend {
	oracle := NewModel()
	flat := topology.H100Cluster(512)
	nvl := topology.NVLDomainFabric(1152)
	return []pricerBackend{
		{
			name: "flat-alpha-beta", p: oracle,
			intra: strided(1), inter: strided(8),
			degrade: func(f ...float64) (Pricer, error) { return oracle.degraded(f...) },
		},
		{
			name: "hier-bottleneck/2tier", p: NewPricer(flat),
			intra: strided(1), inter: strided(8),
			degrade: degradeWith(flat),
		},
		{
			name: "hier-bottleneck/nvl72", p: NewPricer(nvl),
			intra: strided(1), inter: strided(72),
			degrade: degradeWith(nvl),
		},
	}
}

var conformanceKinds = []trace.CommKind{
	trace.CommAllReduce, trace.CommAllGather, trace.CommReduceScatter,
	trace.CommBroadcast, trace.CommSend, trace.CommAllToAll,
}

var conformanceSizes = []int64{1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 30}

// TestPricerConformance is the shared Pricer contract, run against every
// backend: cost is monotone in payload, an intra-domain group never costs
// more than the same group spread across domains, and a degradation factor
// of 1.0 is the bit-exact identity while a real degradation never speeds a
// collective up.
func TestPricerConformance(t *testing.T) {
	for _, b := range backends() {
		b := b
		t.Run(b.name, func(t *testing.T) {
			groups := [][]int{b.intra(2), b.intra(8), b.inter(2), b.inter(8), b.inter(16)}

			t.Run("monotone-in-payload", func(t *testing.T) {
				for _, kind := range conformanceKinds {
					for _, ranks := range groups {
						prev := trace.Dur(-1)
						for _, size := range conformanceSizes {
							d := b.p.Cost(kind, size, ranks)
							if d < prev {
								t.Fatalf("%v over %d ranks: cost(%d)=%d < cost(smaller)=%d",
									kind, len(ranks), size, d, prev)
							}
							prev = d
						}
					}
				}
			})

			t.Run("intra-not-above-inter", func(t *testing.T) {
				for _, kind := range conformanceKinds {
					for _, n := range []int{2, 4, 8} {
						const size = 64 << 20
						in := b.p.Cost(kind, size, b.intra(n))
						out := b.p.Cost(kind, size, b.inter(n))
						if in > out {
							t.Fatalf("%v n=%d: intra-domain %d > inter-domain %d", kind, n, in, out)
						}
					}
				}
			})

			t.Run("degrade-1.0-is-identity", func(t *testing.T) {
				for _, ident := range []Pricer{mustDegrade(t, b, 1), mustDegrade(t, b, 1, 1, 1)} {
					for _, kind := range conformanceKinds {
						for _, ranks := range groups {
							for _, size := range conformanceSizes {
								want := b.p.Cost(kind, size, ranks)
								if got := ident.Cost(kind, size, ranks); got != want {
									t.Fatalf("%v size=%d over %d ranks: degraded(1.0)=%d != %d",
										kind, size, len(ranks), got, want)
								}
							}
						}
					}
				}
			})

			t.Run("degrade-rejects-bad-factors", func(t *testing.T) {
				for _, factors := range [][]float64{{0}, {-0.5}, {1, -1}, {math.NaN()}, {math.Inf(1)}} {
					if _, err := b.degrade(factors...); err == nil {
						t.Fatalf("degrade(%v) accepted, want construction-time rejection", factors)
					}
				}
			})

			t.Run("degrade-slows", func(t *testing.T) {
				half := mustDegrade(t, b, 0.5)
				for _, kind := range conformanceKinds {
					for _, ranks := range groups {
						const size = 256 << 20
						if got, want := half.Cost(kind, size, ranks), b.p.Cost(kind, size, ranks); got < want {
							t.Fatalf("%v over %d ranks: half-bandwidth cost %d < nominal %d",
								kind, len(ranks), got, want)
						}
					}
				}
			})
		})
	}
}

// TestHierBottleneckMatchesFlatModel is the one-pricer equivalence
// regression: production pricing of the flat preset — NewPricer over
// topology.H100Cluster(n), degraded through topology.Degrade — must
// reproduce the reference Model bit for bit, for every primitive, payload
// and group shape, at world sizes covering the single partial node (n < 8)
// and the rounding to whole nodes.
func TestHierBottleneckMatchesFlatModel(t *testing.T) {
	groups := [][]int{
		{0}, {3, 5}, {0, 1, 2, 3}, strided(1)(8), strided(8)(2), strided(8)(16), {0, 7, 8, 15, 64},
	}
	kinds := append([]trace.CommKind{trace.CommRecv, trace.CommNone}, conformanceKinds...)
	sizes := append([]int64{0, 1}, conformanceSizes...)
	// The equivalence must also survive degradation, including a middle
	// factor that only touches the outer tier.
	for _, factors := range [][]float64{nil, {1, 0.5}, {0.75}, {0.5, 0.25}} {
		oracle, err := NewModel().degraded(factors...)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 3, 7, 8, 12, 512} {
			f, err := topology.Degrade(topology.H100Cluster(n), factors...)
			if err != nil {
				t.Fatal(err)
			}
			p := NewPricer(f)
			for _, kind := range kinds {
				for _, ranks := range groups {
					for _, size := range sizes {
						want := oracle.Cost(kind, size, ranks)
						if got := p.Cost(kind, size, ranks); got != want {
							t.Fatalf("n=%d degrade=%v %v size=%d ranks=%v: pricer=%d model=%d",
								n, factors, kind, size, ranks, got, want)
						}
					}
				}
			}
		}
	}
}

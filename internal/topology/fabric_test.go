package topology

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestClusterValidate checks Validate on the flat preset: the testbed
// validates, and each corruption of one of its fields is rejected.
func TestClusterValidate(t *testing.T) {
	good := H100Cluster(64)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid cluster rejected: %v", err)
	}
	// corrupt edits a copy of tier l; good's Levels stay untouched.
	corrupt := func(l int, edit func(*Level)) HierFabric {
		h := good
		h.Levels = append([]Level(nil), good.Levels...)
		edit(&h.Levels[l])
		return h
	}
	zeroGPUs := good
	zeroGPUs.NumGPUs = 0
	cases := map[string]HierFabric{
		"zero GPUsPerNode":      corrupt(0, func(lv *Level) { lv.GPUs = 0 }),
		"zero NumGPUs":          zeroGPUs,
		"zero intra BW":         corrupt(0, func(lv *Level) { lv.BW = 0 }),
		"negative inter BW":     corrupt(1, func(lv *Level) { lv.BW = -1 }),
		"negative intra lat":    corrupt(0, func(lv *Level) { lv.Latency = -1 }),
		"negative inter lat":    corrupt(1, func(lv *Level) { lv.Latency = -5 }),
		"intra BW below floor":  corrupt(0, func(lv *Level) { lv.BW = MinLinkBW / 2 }),
		"infinite inter BW":     corrupt(1, func(lv *Level) { lv.BW = math.Inf(1) }),
		"NaN inter BW":          corrupt(1, func(lv *Level) { lv.BW = math.NaN() }),
		"NaN intra lat":         corrupt(0, func(lv *Level) { lv.Latency = math.NaN() }),
		"infinite inter lat":    corrupt(1, func(lv *Level) { lv.Latency = math.Inf(1) }),
		"inter lat above bound": corrupt(1, func(lv *Level) { lv.Latency = 2 * MaxLinkLatency }),
	}
	for name, h := range cases {
		if err := h.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a nonsense cluster", name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("corruptions leaked into the preset: %v", err)
	}
	// The floor and the latency bound are inclusive.
	edge := corrupt(1, func(lv *Level) { lv.BW, lv.Latency = MinLinkBW, MaxLinkLatency })
	if err := edge.Validate(); err != nil {
		t.Errorf("links at the floor and the latency bound rejected: %v", err)
	}
	// A ragged last node is a valid hierarchy, like NVLDomainFabric(128)'s
	// ragged last domain; H100Cluster itself never builds one.
	ragged := good
	ragged.NumGPUs = 12
	if err := ragged.Validate(); err != nil {
		t.Errorf("ragged last node rejected: %v", err)
	}
}

func TestH100ClusterAlwaysValidates(t *testing.T) {
	for _, n := range []int{1, 3, 4, 7, 8, 12, 16, 100, 512} {
		c := H100Cluster(n)
		if err := c.Validate(); err != nil {
			t.Errorf("H100Cluster(%d) invalid: %v", n, err)
		}
		if c.Capacity() < n {
			t.Errorf("H100Cluster(%d) capacity %d", n, c.Capacity())
		}
		// The rank-to-node mapping of the first n ranks must be the
		// 8-per-node layout: every rank shares a node with its node's first
		// rank, and no node reaches past a multiple of 8.
		for r := 0; r < n; r++ {
			if c.TierOf([]int{r / 8 * 8, r}) != 0 {
				t.Fatalf("H100Cluster(%d): rank %d is not on node %d", n, r, r/8)
			}
			if r%8 == 7 && r+1 < n && c.TierOf([]int{r, r + 1}) != 1 {
				t.Fatalf("H100Cluster(%d): ranks %d and %d share a node", n, r, r+1)
			}
		}
	}
}

func TestClusterAsFabric(t *testing.T) {
	var f Fabric = H100Cluster(64)
	if f.Tiers() != 2 || f.FabricName() != "flat" {
		t.Fatalf("cluster fabric shape: %d tiers, %q", f.Tiers(), f.FabricName())
	}
	if f.Tier(0) != (Link{BW: 360e9, Latency: 4_000}) || f.Tier(1) != (Link{BW: 42e9, Latency: 12_000}) {
		t.Fatalf("tier links %+v / %+v, want NVLink 360 GB/s 4 µs and network 42 GB/s 12 µs", f.Tier(0), f.Tier(1))
	}
	if f.TierOf([]int{0, 7}) != 0 || f.TierOf([]int{0, 8}) != 1 {
		t.Fatal("TierOf disagrees with the 8-GPU node layout")
	}
	if f.TierSize(0) != 8 || f.TierSize(1) != 64 {
		t.Fatal("tier sizes wrong")
	}
	grown := f.WithCapacity(70)
	if grown.Capacity() != 72 {
		t.Fatalf("WithCapacity(70) = %d, want whole nodes (72)", grown.Capacity())
	}
	if err := grown.Validate(); err != nil {
		t.Fatalf("grown cluster invalid: %v", err)
	}
	// Below 8 GPUs the cluster is one partial node that keeps the 8-GPU
	// node size, so growth restores whole NVLink servers.
	partial := H100Cluster(3)
	if partial.Capacity() != 3 || partial.TierSize(0) != 8 || partial.TierOf([]int{0, 2}) != 0 {
		t.Fatalf("partial node: capacity %d, node size %d", partial.Capacity(), partial.TierSize(0))
	}
	if got := partial.WithCapacity(5).Capacity(); got != 8 {
		t.Fatalf("partial node WithCapacity(5) = %d, want one whole node (8)", got)
	}
}

// TestTwoTierFabricMatchesCluster checks the flat preset against the node
// rule the testbed is defined by: a group stays on the NVLink tier exactly
// when every rank sits on the same 8-GPU node (rank / 8).
func TestTwoTierFabricMatchesCluster(t *testing.T) {
	h := H100Cluster(512)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	f := func(a, b, n uint16) bool {
		ranks := []int{int(a) % 512, int(b) % 512, int(n) % 512}
		want := 1
		if ranks[0]/8 == ranks[1]/8 && ranks[1]/8 == ranks[2]/8 {
			want = 0
		}
		return h.TierOf(ranks) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHierFabricTierOf(t *testing.T) {
	h := NVLDomainFabric(1152) // two rails of 576, 16 NVL72 domains
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := h.TierOf([]int{0, 71}); got != 0 {
		t.Fatalf("group inside one NVL domain: tier %d", got)
	}
	if got := h.TierOf([]int{0, 72}); got != 1 {
		t.Fatalf("group across domains within a rail: tier %d", got)
	}
	if got := h.TierOf([]int{0, 576}); got != 2 {
		t.Fatalf("group across rails: tier %d", got)
	}
	if got := h.TierOf(nil); got != 0 {
		t.Fatalf("empty group: tier %d", got)
	}
	if h.TierSize(0) != 72 || h.TierSize(1) != 576 || h.TierSize(2) != 1152 {
		t.Fatalf("tier sizes: %d/%d/%d", h.TierSize(0), h.TierSize(1), h.TierSize(2))
	}
}

func TestHierFabricValidate(t *testing.T) {
	bad := []HierFabric{
		{Name: "no-tiers", NumGPUs: 8},
		{Name: "zero-bw", NumGPUs: 8, Levels: []Level{{GPUs: 8, BW: 0}}},
		{Name: "shrinking", NumGPUs: 64, Levels: []Level{
			{GPUs: 8, BW: 1e9}, {GPUs: 4, BW: 1e9}}},
		{Name: "non-nesting", NumGPUs: 64, Levels: []Level{
			{GPUs: 8, BW: 1e9}, {GPUs: 12, BW: 1e9}}},
		{Name: "inner-whole", NumGPUs: 64, Levels: []Level{
			{GPUs: 0, BW: 1e9}, {GPUs: 0, BW: 1e9}}},
		{Name: "negative-lat", NumGPUs: 8, Levels: []Level{{GPUs: 8, BW: 1e9, Latency: -1}}},
		{Name: "below-floor", NumGPUs: 512, Levels: []Level{
			{GPUs: 8, BW: 360e9}, {GPUs: 0, BW: 0.042}}},
		{Name: "infinite-bw", NumGPUs: 8, Levels: []Level{{GPUs: 8, BW: math.Inf(1)}}},
		{Name: "nan-lat", NumGPUs: 8, Levels: []Level{{GPUs: 8, BW: 1e9, Latency: math.NaN()}}},
		{Name: "huge-lat", NumGPUs: 8, Levels: []Level{{GPUs: 8, BW: 1e9, Latency: 1e19}}},
	}
	for _, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a malformed fabric", h.Name)
		}
	}
	// Presets must validate at any world size, including ones smaller than
	// (or not dividing) their hardware domain sizes.
	for _, n := range []int{3, 4, 5, 7, 40, 72, 100, 512, 1152} {
		for _, h := range []HierFabric{NVLDomainFabric(n), OversubscribedFabric(n, 4), OversubscribedFabric(n, 1)} {
			if err := h.Validate(); err != nil {
				t.Errorf("preset %s at %d GPUs invalid: %v", h.Name, n, err)
			}
		}
	}
}

func TestPresetDomainsSurviveGrowth(t *testing.T) {
	// A preset built small keeps its hardware domain sizes, so growing the
	// fabric to a larger campaign world preserves the real topology instead
	// of freezing a clamped domain.
	small := NVLDomainFabric(8)
	if small.TierSize(0) != 72 {
		t.Fatalf("NVL domain size %d, want 72 regardless of world", small.TierSize(0))
	}
	grown := small.WithCapacity(100)
	if grown.TierSize(0) != 72 {
		t.Fatalf("grown NVL domain size %d", grown.TierSize(0))
	}
	if grown.Capacity() < 100 || grown.Capacity()%72 != 0 {
		t.Fatalf("grown capacity %d, want whole domains >= 100", grown.Capacity())
	}
	if err := grown.Validate(); err != nil {
		t.Fatal(err)
	}
	if grown.TierOf([]int{0, 71}) != 0 || grown.TierOf([]int{0, 72}) != 1 {
		t.Fatal("grown fabric lost its domain structure")
	}
}

func TestDegrade(t *testing.T) {
	base := NVLDomainFabric(576)
	// All-ones degradation is the identity: the fabric is returned as-is.
	if f := MustDegrade(base, 1, 1, 1); f.(HierFabric).Name != base.Name {
		t.Fatal("identity degradation should unwrap to the base fabric")
	}
	d := MustDegrade(base, 1, 0.5)
	if d.Tier(0) != base.Tier(0) {
		t.Fatal("tier 0 must be untouched by factor 1")
	}
	if got, want := d.Tier(1).BW, base.Tier(1).BW*0.5; got != want {
		t.Fatalf("tier 1 BW = %g, want %g", got, want)
	}
	// The last factor extends outward.
	if got, want := d.Tier(2).BW, base.Tier(2).BW*0.5; got != want {
		t.Fatalf("tier 2 BW = %g, want %g", got, want)
	}
	if d.Tier(1).Latency != base.Tier(1).Latency {
		t.Fatal("degradation must not alter latency")
	}
	if d.TierOf([]int{0, 72}) != base.TierOf([]int{0, 72}) || d.Capacity() != base.Capacity() {
		t.Fatal("degradation must not alter topology structure")
	}
	if !strings.Contains(d.FabricName(), base.FabricName()) {
		t.Fatalf("degraded name %q should mention the base", d.FabricName())
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.WithCapacity(1200).Capacity(); got < 1200 {
		t.Fatalf("degraded WithCapacity = %d", got)
	}
}

// TestDegradeFactorValidation is the construction-time rejection contract:
// a bad factor never produces a fabric, so it can never flow into prices.
func TestDegradeFactorValidation(t *testing.T) {
	base := NVLDomainFabric(576)
	cases := []struct {
		name    string
		factors []float64
		wantErr bool
	}{
		{"empty-is-identity", nil, false},
		{"all-ones", []float64{1, 1, 1}, false},
		{"half-outer", []float64{1, 0.5}, false},
		{"tiny-positive", []float64{1e-4}, false},
		{"below-floor", []float64{1e-9}, true},
		{"below-floor-outer", []float64{1, 1e-5}, true},
		{"above-one", []float64{2}, false},
		{"zero", []float64{0}, true},
		{"negative", []float64{-0.5}, true},
		{"negative-outer", []float64{1, -1}, true},
		{"nan", []float64{math.NaN()}, true},
		{"nan-middle", []float64{1, math.NaN(), 1}, true},
		{"pos-inf", []float64{math.Inf(1)}, true},
		{"neg-inf", []float64{math.Inf(-1)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := Degrade(base, tc.factors...)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Degrade(%v) accepted, want construction-time rejection", tc.factors)
				}
				if f != nil {
					t.Fatalf("Degrade(%v) returned a fabric alongside the error", tc.factors)
				}
				return
			}
			if err != nil {
				t.Fatalf("Degrade(%v): %v", tc.factors, err)
			}
			if err := f.Validate(); err != nil {
				t.Fatalf("accepted fabric fails Validate: %v", err)
			}
		})
	}
}

// TestPresetConstructorNormalization checks that preset constructors
// normalize degenerate GPU counts into valid fabrics instead of producing
// values that fail Validate downstream.
func TestPresetConstructorNormalization(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    Fabric
	}{
		{"nvl72-zero", NVLDomainFabric(0)},
		{"nvl72-negative", NVLDomainFabric(-4)},
		{"spine-zero", OversubscribedFabric(0, 4)},
		{"spine-negative-factor", OversubscribedFabric(64, -3)},
		{"spine-nan-factor", OversubscribedFabric(64, math.NaN())},
		{"h100-zero", H100Cluster(0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.f.Validate(); err != nil {
				t.Fatalf("preset does not self-normalize: %v", err)
			}
			if tc.f.Capacity() < 1 {
				t.Fatalf("normalized capacity %d", tc.f.Capacity())
			}
		})
	}
}

// Fabric: the hierarchical network-topology abstraction. A Fabric is a
// sequence of tiers — innermost (fastest, smallest domains) to outermost —
// each describing the per-GPU bandwidth and per-hop latency of one level of
// the interconnect: NVLink domain, rail/leaf switch, spine. HierFabric
// models every hierarchy — the paper's flat two-tier testbed
// (H100Cluster), NVL72-class NVLink domains, rail-optimized or
// oversubscribed leaf/spine networks — and Degrade wraps any fabric with
// per-tier bandwidth scaling for degraded-link what-ifs.
package topology

import (
	"fmt"
	"math"
	"strings"
)

// MinLinkBW is the slowest per-GPU link bandwidth, in bytes/sec, that a
// fabric tier may have (1 MB/s), degraded tiers included. Slower links are
// not physical, and their collective prices leave trace.Dur's int64 range:
// at the floor a 1 TiB all-reduce prices at ≈2.5e15 ns, over 3,000× below
// the 9.2e18 ns limit.
const MinLinkBW = 1e6

// MaxLinkLatency is the largest per-hop latency, in nanoseconds, that a
// fabric tier may have (1 s).
const MaxLinkLatency = 1e9

// Link is one fabric tier's per-GPU link parameters.
type Link struct {
	// BW is effective per-GPU bandwidth in bytes/sec (unidirectional).
	BW float64
	// Latency is per-hop latency in nanoseconds.
	Latency float64
}

// Fabric is a hierarchical interconnect model. Tiers are indexed from 0
// (innermost: the fastest links and smallest domains) outward; every rank
// set is contained by the outermost tier. Implementations must be usable by
// value and safe for concurrent reads.
type Fabric interface {
	// FabricName identifies the preset for reports and benchmark labels.
	FabricName() string
	// Capacity is the total GPU count the fabric can host.
	Capacity() int
	// WithCapacity returns a copy resized to host at least n GPUs.
	WithCapacity(n int) Fabric
	// Tiers is the number of hierarchy levels.
	Tiers() int
	// Tier returns level l's link parameters.
	Tier(l int) Link
	// TierOf returns the innermost tier whose domains contain every rank in
	// the group: 0 for a group inside one innermost domain, Tiers()-1 for a
	// group spanning the whole fabric.
	TierOf(ranks []int) int
	// TierSize returns the number of consecutive ranks per domain at tier l;
	// the outermost tier covers the whole fabric.
	TierSize(l int) int
	// Validate rejects non-physical fabrics (links below MinLinkBW or
	// beyond MaxLinkLatency, domain sizes that do not nest) at
	// construction time.
	Validate() error
}

// FabricID is a fabric's full identity: its concrete type and every link
// parameter, rendered deterministically. Every Fabric implementation is a
// value type, so the rendering has no pointer dependence; two fabrics with
// equal IDs price every collective alike.
func FabricID(f Fabric) string { return fmt.Sprintf("%T|%+v", f, f) }

// --- HierFabric -------------------------------------------------------------

// Level is one tier of a HierFabric.
type Level struct {
	// Name labels the tier ("nvl-domain", "rail", "spine").
	Name string
	// GPUs is the domain size: consecutive ranks per domain at this tier.
	// 0 on the outermost tier means "the whole fabric".
	GPUs int
	// BW is effective per-GPU bandwidth in bytes/sec at this tier.
	BW float64
	// Latency is per-hop latency in nanoseconds.
	Latency float64
}

// HierFabric is an N-tier hierarchical fabric with contiguous rank-to-domain
// placement at every tier.
type HierFabric struct {
	// Name identifies the preset.
	Name string
	// NumGPUs is the total accelerator count.
	NumGPUs int
	// Levels lists tiers innermost-first. Domain sizes must strictly grow
	// and nest (each divides the next); only the last may be 0 (= whole
	// fabric).
	Levels []Level
}

// FabricName implements Fabric.
func (h HierFabric) FabricName() string { return h.Name }

// Capacity implements Fabric.
func (h HierFabric) Capacity() int { return h.NumGPUs }

// WithCapacity implements Fabric, growing to whole innermost domains.
func (h HierFabric) WithCapacity(n int) Fabric {
	if n > h.NumGPUs {
		if len(h.Levels) > 0 && h.Levels[0].GPUs > 0 {
			d := h.Levels[0].GPUs
			n = (n + d - 1) / d * d
		}
		h.NumGPUs = n
	}
	return h
}

// Tiers implements Fabric.
func (h HierFabric) Tiers() int { return len(h.Levels) }

// Tier implements Fabric.
func (h HierFabric) Tier(l int) Link {
	if l < 0 {
		l = 0
	}
	if l >= len(h.Levels) {
		l = len(h.Levels) - 1
	}
	lv := h.Levels[l]
	return Link{BW: lv.BW, Latency: lv.Latency}
}

// TierSize implements Fabric.
func (h HierFabric) TierSize(l int) int {
	if l < 0 || l >= len(h.Levels) {
		return h.NumGPUs
	}
	if g := h.Levels[l].GPUs; g > 0 {
		return g
	}
	return h.NumGPUs
}

// TierOf implements Fabric.
func (h HierFabric) TierOf(ranks []int) int {
	if len(ranks) == 0 {
		return 0
	}
	for l := range h.Levels {
		size := h.TierSize(l)
		dom := ranks[0] / size
		same := true
		for _, r := range ranks[1:] {
			if r/size != dom {
				same = false
				break
			}
		}
		if same {
			return l
		}
	}
	return len(h.Levels) - 1
}

// Validate implements Fabric.
func (h HierFabric) Validate() error {
	if h.NumGPUs < 1 {
		return fmt.Errorf("topology: fabric %q: NumGPUs must be >= 1, got %d", h.Name, h.NumGPUs)
	}
	if len(h.Levels) == 0 {
		return fmt.Errorf("topology: fabric %q has no tiers", h.Name)
	}
	prev := 0
	for i, lv := range h.Levels {
		if err := checkLink(Link{BW: lv.BW, Latency: lv.Latency}); err != nil {
			return fmt.Errorf("topology: fabric %q tier %d (%s): %w", h.Name, i, lv.Name, err)
		}
		if lv.GPUs == 0 {
			if i != len(h.Levels)-1 {
				return fmt.Errorf("topology: fabric %q tier %d (%s): only the outermost tier may cover the whole fabric", h.Name, i, lv.Name)
			}
			continue
		}
		if lv.GPUs <= prev {
			return fmt.Errorf("topology: fabric %q tier %d (%s): domain size %d does not grow beyond inner tier's %d", h.Name, i, lv.Name, lv.GPUs, prev)
		}
		if prev > 0 && lv.GPUs%prev != 0 {
			return fmt.Errorf("topology: fabric %q tier %d (%s): domain size %d does not nest on inner tier's %d", h.Name, i, lv.Name, lv.GPUs, prev)
		}
		prev = lv.GPUs
	}
	return nil
}

// checkLink rejects a non-physical tier: a bandwidth below MinLinkBW or
// not finite, or a latency outside [0, MaxLinkLatency]. The comparisons
// are written NaN-rejecting.
func checkLink(lk Link) error {
	if !(lk.BW >= MinLinkBW) || math.IsInf(lk.BW, 1) {
		return fmt.Errorf("bandwidth %g B/s must be finite and at least %g B/s", lk.BW, MinLinkBW)
	}
	if !(lk.Latency >= 0 && lk.Latency <= MaxLinkLatency) {
		return fmt.Errorf("latency %g ns must lie in [0, %g]", lk.Latency, MaxLinkLatency)
	}
	return nil
}

// --- Presets ----------------------------------------------------------------

// H100Cluster returns the paper's testbed as a two-tier fabric named
// "flat": nodes of 8 H100s joined by NVLink 4 (~450 GB/s effective per
// direction, derated), and one RoCE tier with 400 Gbps per GPU. The result
// always validates: fewer than 8 GPUs live in one partially filled node
// (the node size stays 8, so later capacity growth keeps real 8-GPU NVLink
// servers), and larger counts round up to whole nodes.
func H100Cluster(numGPUs int) HierFabric {
	const gpn = 8
	switch {
	case numGPUs < 1:
		numGPUs = gpn
	case numGPUs > gpn:
		numGPUs = (numGPUs + gpn - 1) / gpn * gpn
	}
	return HierFabric{
		Name:    "flat",
		NumGPUs: numGPUs,
		Levels: []Level{
			{Name: "nvlink", GPUs: gpn, BW: 360e9, Latency: 4_000}, // 450 GB/s peak derated to ~80% achievable
			{Name: "network", GPUs: 0, BW: 42e9, Latency: 12_000},  // 50 GB/s peak derated for RoCE/ECMP effects
		},
	}
}

// NVLDomainFabric models an NVL72-class deployment: rack-scale NVLink
// domains of 72 GPUs (GB200 NVL72 switch trays, ~900 GB/s peak per GPU
// derated to 80%), joined rack-to-rack by a rail-optimized 800 Gbps RoCE
// fabric within a pod of eight racks, with a spine across pods.
func NVLDomainFabric(numGPUs int) HierFabric {
	// Domain sizes are fixed by the hardware, not clamped to numGPUs: a
	// fabric smaller than one domain simply lives inside it, and
	// WithCapacity growth keeps real 72-GPU domains. Non-positive GPU counts
	// normalize to one domain so the constructor always validates, matching
	// H100Cluster.
	if numGPUs < 1 {
		numGPUs = 72
	}
	return HierFabric{
		Name:    "nvl72",
		NumGPUs: numGPUs,
		Levels: []Level{
			{Name: "nvl-domain", GPUs: 72, BW: 720e9, Latency: 3_500},
			{Name: "rail", GPUs: 576, BW: 90e9, Latency: 10_000},
			{Name: "spine", GPUs: 0, BW: 45e9, Latency: 16_000},
		},
	}
}

// OversubscribedFabric models classic 8-GPU NVLink servers under a
// leaf/spine data-center network whose spine is oversubscribed by the given
// factor: leaf switches carry the full 42 GB/s per GPU inside a 256-GPU
// pod, while cross-pod traffic shares a spine with factor× less capacity.
// factor 1 is a rail-optimized full-bisection network.
func OversubscribedFabric(numGPUs int, factor float64) HierFabric {
	if !(factor >= 1) { // NaN-rejecting
		factor = 1
	}
	if numGPUs < 1 {
		numGPUs = 8
	}
	return HierFabric{
		Name:    fmt.Sprintf("spine%g", factor),
		NumGPUs: numGPUs,
		Levels: []Level{
			{Name: "nvlink", GPUs: 8, BW: 360e9, Latency: 4_000},
			{Name: "leaf", GPUs: 256, BW: 42e9, Latency: 12_000},
			{Name: "spine", GPUs: 0, BW: 42e9 / factor, Latency: 18_000},
		},
	}
}

// --- Degradation ------------------------------------------------------------

// degraded wraps a fabric with per-tier bandwidth scaling.
type degraded struct {
	base    Fabric
	factors []float64
}

// validateDegradeFactors rejects non-physical per-tier bandwidth factors:
// NaN, zero, negative, and +Inf values all turn into silent nonsense prices
// downstream, so they are refused before a degraded fabric can exist.
func validateDegradeFactors(factors []float64) error {
	for i, s := range factors {
		if !(s > 0) || math.IsInf(s, 1) { // NaN-rejecting
			return fmt.Errorf("topology: degradation factor %d is %g, must be a positive finite value", i, s)
		}
	}
	return nil
}

// Degrade returns a view of f whose tier-l bandwidth is scaled by
// factors[l] (the last factor extends to all remaining outer tiers), the
// "degraded links" what-if: Degrade(f, 1, 0.5) halves everything beyond the
// innermost domain, Degrade(f, 0.5) halves every link. A factor of 1.0 is
// the identity; if every factor is 1 the fabric is returned unwrapped.
// NaN, zero, negative, and infinite factors are rejected at construction,
// and so is a factor that drops any tier below MinLinkBW — a bad factor
// never reaches a pricer.
func Degrade(f Fabric, factors ...float64) (Fabric, error) {
	if err := validateDegradeFactors(factors); err != nil {
		return nil, err
	}
	ident := true
	for _, s := range factors {
		if s != 1 {
			ident = false
			break
		}
	}
	if ident {
		return f, nil
	}
	d := degraded{base: f, factors: factors}
	if err := d.checkTiers(); err != nil {
		return nil, err
	}
	return d, nil
}

// MustDegrade is Degrade for statically known factors; it panics on factors
// Degrade would reject.
func MustDegrade(f Fabric, factors ...float64) Fabric {
	d, err := Degrade(f, factors...)
	if err != nil {
		panic(err)
	}
	return d
}

// factor resolves tier l's bandwidth scale.
func (d degraded) factor(l int) float64 {
	if len(d.factors) == 0 {
		return 1
	}
	if l >= len(d.factors) {
		l = len(d.factors) - 1
	}
	if l < 0 {
		l = 0
	}
	return d.factors[l]
}

// FabricName implements Fabric.
func (d degraded) FabricName() string {
	parts := make([]string, len(d.factors))
	for i, s := range d.factors {
		parts[i] = fmt.Sprintf("%g", s)
	}
	return fmt.Sprintf("%s@bw*%s", d.base.FabricName(), strings.Join(parts, ","))
}

// Capacity implements Fabric.
func (d degraded) Capacity() int { return d.base.Capacity() }

// WithCapacity implements Fabric.
func (d degraded) WithCapacity(n int) Fabric {
	return degraded{base: d.base.WithCapacity(n), factors: d.factors}
}

// Tiers implements Fabric.
func (d degraded) Tiers() int { return d.base.Tiers() }

// Tier implements Fabric.
func (d degraded) Tier(l int) Link {
	lk := d.base.Tier(l)
	lk.BW *= d.factor(l)
	return lk
}

// TierOf implements Fabric.
func (d degraded) TierOf(ranks []int) int { return d.base.TierOf(ranks) }

// TierSize implements Fabric.
func (d degraded) TierSize(l int) int { return d.base.TierSize(l) }

// checkTiers rejects a degradation that leaves any tier non-physical.
func (d degraded) checkTiers() error {
	for l := 0; l < d.Tiers(); l++ {
		if err := checkLink(d.Tier(l)); err != nil {
			return fmt.Errorf("topology: fabric %q tier %d: %w", d.FabricName(), l, err)
		}
	}
	return nil
}

// Validate implements Fabric. Factors and degraded tiers were already
// rejected at construction; re-checking keeps hand-built degraded values
// honest.
func (d degraded) Validate() error {
	if err := validateDegradeFactors(d.factors); err != nil {
		return err
	}
	if err := d.base.Validate(); err != nil {
		return err
	}
	return d.checkTiers()
}

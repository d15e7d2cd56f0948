// Space: the declarative search domain of a deployment plan. A Space is a
// set of ranges over the deployment knobs — parallelism degrees,
// microbatch count, pipeline schedules, fabric presets, link-degradation
// factors — whose cross product is enumerated lazily: points stream
// through the planner's analytic filters one at a time, and the full grid
// is never materialized.
package planner

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"lumos/internal/parallel"
	"lumos/internal/schedule"
	"lumos/internal/topology"
)

// Point is one deployment candidate: a parallelism × microbatch × schedule
// × fabric coordinate of a Space.
type Point struct {
	// TP, PP, DP are the parallel degrees; Microbatches the per-rank
	// microbatch count.
	TP, PP, DP, Microbatches int
	// Schedule is the pipeline-schedule spec name ("1f1b", "gpipe",
	// "interleaved2", "zb-h1"); empty keeps the base deployment's schedule.
	// Unknown names are rejected by the analytic pre-filter with the full
	// menu of valid options.
	Schedule string
	// Fabric is the target interconnect; nil reuses the campaign's bound
	// fabric.
	Fabric topology.Fabric
	// Degrade scales per-tier bandwidth on the resolved fabric (see
	// topology.Degrade); empty means no degradation.
	Degrade []float64
}

// World returns the GPU count the point occupies.
func (p Point) World() int { return p.TP * p.PP * p.DP }

// Key is the point's canonical identity: scenario name, memo tiebreak, and
// deterministic sort key all use it. A set fabric contributes its full
// value (type and link parameters, as a short digest after its display
// name), not just FabricName() — two differently tuned fabrics that share
// a preset name must not collapse to one planner identity, or one's cached
// prediction would silently serve the other's point.
func (p Point) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%dx%dx%d/mb%d", p.TP, p.PP, p.DP, p.Microbatches)
	if p.Schedule != "" {
		fmt.Fprintf(&sb, "/%s", scheduleID(p.Schedule))
	}
	if p.Fabric != nil {
		h := fnv.New32a()
		h.Write([]byte(topology.FabricID(p.Fabric)))
		fmt.Fprintf(&sb, "@%s#%06x", p.Fabric.FabricName(), h.Sum32()&0xffffff)
	}
	if len(p.Degrade) > 0 {
		parts := make([]string, len(p.Degrade))
		for i, f := range p.Degrade {
			parts[i] = fmt.Sprintf("%g", f)
		}
		fmt.Fprintf(&sb, "~bw*%s", strings.Join(parts, ","))
	}
	return sb.String()
}

// scheduleID is the schedule name as Point.Key spells it.
func scheduleID(name string) string { return strings.ToLower(strings.TrimSpace(name)) }

// Config derives the point's deployment from the campaign base: the base's
// architecture and execution knobs with the point's mapping, microbatch
// count and pipeline schedule. An unparseable schedule name leaves the
// base's schedule in place — the bounder rejects such points before they
// can reach a simulation, so the fallback is never simulated.
func (p Point) Config(base parallel.Config) parallel.Config {
	target := base
	target.Map = topology.Mapping{TP: p.TP, PP: p.PP, DP: p.DP}
	if p.Microbatches > 0 {
		target.Microbatches = p.Microbatches
	}
	if p.Schedule != "" {
		if spec, err := schedule.Parse(p.Schedule); err == nil {
			target.Schedule = spec.Policy
			target.VirtualStages = spec.Virtual
		}
	}
	return target
}

// Space declares ranges over the deployment knobs. Empty dimensions pin the
// base deployment's value, so a Space{DP: []int{2, 4, 8}} varies only data
// parallelism.
type Space struct {
	// TP, PP, DP enumerate parallel degrees. Empty = the base's degree.
	TP, PP, DP []int
	// Microbatch enumerates per-rank microbatch counts. Empty = the base's.
	Microbatch []int
	// Schedules enumerates pipeline-schedule spec names ("1f1b", "gpipe",
	// "interleaved2", "zb-h1"); empty strings (and an empty list) keep the
	// base deployment's schedule.
	Schedules []string
	// Fabrics enumerates target interconnects; nil entries (and an empty
	// list) select the campaign's bound fabric.
	Fabrics []topology.Fabric
	// Degrade enumerates per-tier bandwidth factor vectors applied to each
	// fabric; an empty list means the undegraded fabric only.
	Degrade [][]float64
}

// withBase resolves empty dimensions against the base deployment and keeps
// only the first occurrence of each value on every axis, so Size, ForEach
// and branch-and-bound's subtrees count each point once. Schedule names
// compare as Point.Key spells them, degrade vectors by value, and fabrics
// by the identity Point.Key digests.
func (s Space) withBase(base parallel.Config) Space {
	if len(s.TP) == 0 {
		s.TP = []int{base.Map.TP}
	}
	if len(s.PP) == 0 {
		s.PP = []int{base.Map.PP}
	}
	if len(s.DP) == 0 {
		s.DP = []int{base.Map.DP}
	}
	if len(s.Microbatch) == 0 {
		s.Microbatch = []int{base.Microbatches}
	}
	if len(s.Schedules) == 0 {
		s.Schedules = []string{""}
	}
	if len(s.Fabrics) == 0 {
		s.Fabrics = []topology.Fabric{nil}
	}
	if len(s.Degrade) == 0 {
		s.Degrade = [][]float64{nil}
	}
	same := func(v int) int { return v }
	s.TP, s.PP, s.DP = distinct(s.TP, same), distinct(s.PP, same), distinct(s.DP, same)
	s.Microbatch = distinct(s.Microbatch, same)
	s.Schedules = distinct(s.Schedules, scheduleID)
	s.Fabrics = distinct(s.Fabrics, topology.FabricID)
	s.Degrade = distinct(s.Degrade, func(v []float64) string { return fmt.Sprint(v) })
	return s
}

// distinct returns vals without the values whose id an earlier value
// already had, in order.
func distinct[T any, K comparable](vals []T, id func(T) K) []T {
	seen := make(map[K]bool, len(vals))
	out := make([]T, 0, len(vals))
	for _, v := range vals {
		if k := id(v); !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// Size returns the number of points the space expands to, saturating at
// math.MaxInt rather than wrapping.
func (s Space) Size(base parallel.Config) int {
	r := s.withBase(base)
	n := 1
	for _, k := range []int{len(r.TP), len(r.PP), len(r.DP), len(r.Microbatch), len(r.Schedules), len(r.Fabrics), len(r.Degrade)} {
		if n > math.MaxInt/k {
			return math.MaxInt
		}
		n *= k
	}
	return n
}

// ForEach streams every point of the space in deterministic order without
// materializing the grid; yield returning false stops the walk.
func (s Space) ForEach(base parallel.Config, yield func(Point) bool) {
	r := s.withBase(base)
	for _, tp := range r.TP {
		for _, pp := range r.PP {
			for _, dp := range r.DP {
				for _, mb := range r.Microbatch {
					for _, sched := range r.Schedules {
						for _, f := range r.Fabrics {
							for _, deg := range r.Degrade {
								p := Point{TP: tp, PP: pp, DP: dp, Microbatches: mb, Schedule: sched, Fabric: f, Degrade: deg}
								if !yield(p) {
									return
								}
							}
						}
					}
				}
			}
		}
	}
}

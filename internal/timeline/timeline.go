// Package timeline provides interval-set algebra over trace timestamps:
// union, intersection, and windowed occupancy. The breakdown and
// SM-utilization analyses in the paper are defined in terms of these
// operations (e.g. "overlapped = compute ∩ comm", and exposed comm as
// |comm| − |comm ∩ compute|).
package timeline

import (
	"cmp"
	"slices"
)

// Interval is a half-open time interval [Start, End) in nanoseconds.
type Interval struct {
	Start, End int64
}

// Len returns the interval's length, or 0 if it is empty/inverted.
func (iv Interval) Len() int64 {
	if iv.End <= iv.Start {
		return 0
	}
	return iv.End - iv.Start
}

// Set is a normalized (sorted, disjoint, non-empty intervals) interval set.
type Set struct {
	ivs []Interval
}

// Add inserts an interval, keeping the set normalized.
func (s *Set) Add(start, end int64) {
	if end <= start {
		return
	}
	s.ivs = append(s.ivs, Interval{start, end})
	s.normalize()
}

// AddFast appends without normalizing; call Normalize when done. Useful when
// bulk-loading thousands of kernel intervals.
func (s *Set) AddFast(start, end int64) {
	if end <= start {
		return
	}
	s.ivs = append(s.ivs, Interval{start, end})
}

// Normalize sorts and merges overlapping/adjacent intervals.
func (s *Set) Normalize() { s.normalize() }

func (s *Set) normalize() {
	if len(s.ivs) <= 1 {
		return
	}
	// Merging is order-independent among equal starts, so an unstable
	// sort yields the same set.
	slices.SortFunc(s.ivs, func(a, b Interval) int { return cmp.Compare(a.Start, b.Start) })
	out := s.ivs[:1]
	for _, iv := range s.ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start <= last.End {
			if iv.End > last.End {
				last.End = iv.End
			}
		} else {
			out = append(out, iv)
		}
	}
	s.ivs = out
}

// Total returns the summed length of the set.
func (s *Set) Total() int64 {
	var t int64
	for _, iv := range s.ivs {
		t += iv.End - iv.Start
	}
	return t
}

// Union returns a ∪ b.
func Union(a, b *Set) *Set {
	out := &Set{ivs: make([]Interval, 0, len(a.ivs)+len(b.ivs))}
	out.ivs = append(out.ivs, a.ivs...)
	out.ivs = append(out.ivs, b.ivs...)
	out.normalize()
	return out
}

// Intersect returns a ∩ b via a linear merge of the two normalized sets.
func Intersect(a, b *Set) *Set {
	out := &Set{}
	i, j := 0, 0
	for i < len(a.ivs) && j < len(b.ivs) {
		lo := max64(a.ivs[i].Start, b.ivs[j].Start)
		hi := min64(a.ivs[i].End, b.ivs[j].End)
		if lo < hi {
			out.ivs = append(out.ivs, Interval{lo, hi})
		}
		if a.ivs[i].End < b.ivs[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// Occupancy computes, for consecutive windows of width window covering
// [start, end), the fraction of each window covered by the set. It returns
// one value per window in [0, 1]. window must be > 0.
func (s *Set) Occupancy(start, end, window int64) []float64 {
	if window <= 0 || end <= start {
		return nil
	}
	n := int((end - start + window - 1) / window)
	out := make([]float64, n)
	idx := 0
	for w := 0; w < n; w++ {
		ws := start + int64(w)*window
		we := ws + window
		if we > end {
			we = end
		}
		for idx < len(s.ivs) && s.ivs[idx].End <= ws {
			idx++
		}
		var covered int64
		for k := idx; k < len(s.ivs) && s.ivs[k].Start < we; k++ {
			lo := max64(s.ivs[k].Start, ws)
			hi := min64(s.ivs[k].End, we)
			if hi > lo {
				covered += hi - lo
			}
		}
		out[w] = float64(covered) / float64(we-ws)
	}
	return out
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

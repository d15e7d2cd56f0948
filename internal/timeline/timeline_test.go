package timeline

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// set builds a set from arbitrary intervals the way the analyses
// bulk-load one: AddFast, then Normalize.
func set(ivs ...Interval) *Set {
	s := &Set{}
	for _, iv := range ivs {
		s.AddFast(iv.Start, iv.End)
	}
	s.Normalize()
	return s
}

// TestFromIntervalsNormalizes: a set built from arbitrary intervals is
// sorted, disjoint and free of empty intervals.
func TestFromIntervalsNormalizes(t *testing.T) {
	tests := []struct {
		name string
		in   []Interval
		want []Interval
	}{
		{"empty", nil, nil},
		{"single", []Interval{{1, 5}}, []Interval{{1, 5}}},
		{"drops empty", []Interval{{5, 5}, {7, 3}}, nil},
		{"merges overlap", []Interval{{1, 5}, {3, 8}}, []Interval{{1, 8}}},
		{"merges adjacent", []Interval{{1, 5}, {5, 8}}, []Interval{{1, 8}}},
		{"keeps disjoint", []Interval{{1, 2}, {4, 6}}, []Interval{{1, 2}, {4, 6}}},
		{"unsorted input", []Interval{{10, 12}, {1, 3}, {2, 5}}, []Interval{{1, 5}, {10, 12}}},
		{"contained", []Interval{{1, 10}, {3, 4}}, []Interval{{1, 10}}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := set(tc.in...).ivs
			if len(got) != len(tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("got %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func TestTotal(t *testing.T) {
	s := set(Interval{0, 10}, Interval{20, 25})
	if s.Total() != 15 {
		t.Fatalf("Total = %d, want 15", s.Total())
	}
	if set().Total() != 0 {
		t.Fatal("empty set total should be 0")
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		name string
		a, b *Set
		want int64
	}{
		{"disjoint", set(Interval{0, 5}), set(Interval{10, 20}), 0},
		{"partial", set(Interval{0, 10}), set(Interval{5, 15}), 5},
		{"contained", set(Interval{0, 100}), set(Interval{20, 30}), 10},
		{"multi", set(Interval{0, 10}, Interval{20, 30}), set(Interval{5, 25}), 10},
		{"empty", set(), set(Interval{0, 5}), 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Intersect(tc.a, tc.b).Total(); got != tc.want {
				t.Fatalf("Intersect total = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestOccupancy(t *testing.T) {
	s := set(Interval{0, 500}, Interval{1000, 2000})
	occ := s.Occupancy(0, 2000, 1000)
	if len(occ) != 2 {
		t.Fatalf("want 2 windows, got %d", len(occ))
	}
	if occ[0] != 0.5 || occ[1] != 1.0 {
		t.Fatalf("occupancy = %v, want [0.5 1.0]", occ)
	}
	// Partial last window.
	occ = s.Occupancy(0, 1500, 1000)
	if len(occ) != 2 || occ[1] != 1.0 {
		t.Fatalf("partial window occupancy = %v", occ)
	}
	if s.Occupancy(0, 100, 0) != nil {
		t.Fatal("zero window must return nil")
	}
}

// randomSet builds a normalized set from a fuzz seed.
func randomSet(r *rand.Rand) *Set {
	n := r.Intn(8)
	ivs := make([]Interval, n)
	for i := range ivs {
		start := int64(r.Intn(1000))
		ivs[i] = Interval{start, start + int64(r.Intn(200))}
	}
	return set(ivs...)
}

func TestPropertyIntervalAlgebra(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}

	// |A ∪ B| = |A| + |B| − |A ∩ B|
	inclusionExclusion := func(seedA, seedB int64) bool {
		a := randomSet(rand.New(rand.NewSource(seedA)))
		b := randomSet(rand.New(rand.NewSource(seedB)))
		return Union(a, b).Total() == a.Total()+b.Total()-Intersect(a, b).Total()
	}
	if err := quick.Check(inclusionExclusion, cfg); err != nil {
		t.Errorf("inclusion-exclusion: %v", err)
	}

	// Intersection commutes.
	commute := func(seedA, seedB int64) bool {
		a := randomSet(rand.New(rand.NewSource(seedA)))
		b := randomSet(rand.New(rand.NewSource(seedB)))
		return Intersect(a, b).Total() == Intersect(b, a).Total()
	}
	if err := quick.Check(commute, cfg); err != nil {
		t.Errorf("intersect commutativity: %v", err)
	}

	// Normalization invariants: sorted, disjoint, non-empty.
	normalized := func(seed int64) bool {
		s := randomSet(rand.New(rand.NewSource(seed)))
		ivs := s.ivs
		for i, iv := range ivs {
			if iv.Len() <= 0 {
				return false
			}
			if i > 0 && ivs[i-1].End >= iv.Start {
				return false
			}
		}
		return true
	}
	if err := quick.Check(normalized, cfg); err != nil {
		t.Errorf("normalization: %v", err)
	}

	// Occupancy is within [0,1] and total occupancy * window ≈ covered time
	// within the span.
	occBounds := func(seed int64) bool {
		s := randomSet(rand.New(rand.NewSource(seed)))
		if len(s.ivs) == 0 {
			return true
		}
		occ := s.Occupancy(s.ivs[0].Start, s.ivs[len(s.ivs)-1].End, 100)
		for _, o := range occ {
			if o < 0 || o > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(occBounds, cfg); err != nil {
		t.Errorf("occupancy bounds: %v", err)
	}
}

func TestAddKeepsNormalized(t *testing.T) {
	s := &Set{}
	s.Add(10, 20)
	s.Add(0, 5)
	s.Add(4, 11)
	got := s.ivs
	if len(got) != 1 || got[0] != (Interval{0, 20}) {
		t.Fatalf("got %v, want [{0 20}]", got)
	}
}

package parallel

import (
	"slices"
	"testing"

	"lumos/internal/model"
	"lumos/internal/trace"
)

// domainPricer prices a transfer by whether it stays inside one domain of
// size ranks, like a two-tier fabric's TierOf.
type domainPricer int

func (d domainPricer) Cost(_ trace.CommKind, _ int64, ranks []int) trace.Dur {
	for _, r := range ranks[1:] {
		if r/int(d) != ranks[0]/int(d) {
			return 2
		}
	}
	return 1
}

// TestClassesSplitByDomain: TP2×PP3×DP8 places 6-rank replicas on 8-GPU
// domains, so replicas 0, 3, 4 and 7 sit inside one domain, 1 and 5 cross a
// boundary between stages 0 and 1, and 2 and 6 between stages 1 and 2.
func TestClassesSplitByDomain(t *testing.T) {
	m := mapping(t, 2, 3, 8)
	cfg := DefaultConfig(model.GPT3_15B().WithLayers(6), m)
	comms, err := ReplicaComms(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rc := range comms {
		for _, r := range rc.Ranks {
			if r >= m.TP*m.PP {
				t.Fatalf("replica-local communication %+v leaves replica 0", rc)
			}
		}
	}
	got := OneClass(m.DP).Split(m, comms, domainPricer(8))
	want := Classes{0, 1, 2, 0, 0, 1, 2, 0}
	if !slices.Equal(got, want) {
		t.Fatalf("classes %v, want %v", got, want)
	}
	if n := got.Count(m.DP); n != 3 {
		t.Fatalf("%d classes, want 3", n)
	}
	for d, size := range []int{4, 2, 2, 0, 0, 0, 0, 0} {
		if got.Size(d) != size {
			t.Fatalf("replica %d stands for %d replicas, want %d", d, got.Size(d), size)
		}
	}
	if !got.Merged() || Classes(nil).Merged() || (Classes{0, 1}).Merged() {
		t.Fatal("Merged must report only a class with more than one replica")
	}
	// Splitting refines: a pricer that tells no replicas apart keeps the
	// partition, and the nil partition stays nil.
	if again := got.Split(m, comms, domainPricer(48)); !slices.Equal(again, got) {
		t.Fatalf("a uniform pricer split %v into %v", got, again)
	}
	if Classes(nil).Split(m, comms, domainPricer(8)) != nil {
		t.Fatal("splitting one class per replica must stay nil")
	}
}

// TestBuildProgramsRejectsMalformedClasses: BuildPrograms simulates only
// representatives, so a partition whose representative is not its class's
// lowest replica would drop replicas silently.
func TestBuildProgramsRejectsMalformedClasses(t *testing.T) {
	cfg := DefaultConfig(model.GPT3_15B().WithLayers(4), mapping(t, 1, 2, 3))
	for _, c := range []Classes{{0, 0}, {0, 2, 1}, {1, 1, 1}, {0, 0, 1}} {
		if _, err := BuildPrograms(cfg, c); err == nil {
			t.Fatalf("BuildPrograms accepted price classes %v", c)
		}
	}
	progs, err := BuildPrograms(cfg, Classes{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for r, p := range progs {
		dp, _, _ := cfg.Map.Coords(r)
		if (p == nil) != (dp == 2) {
			t.Fatalf("rank %d (replica %d): program present %v", r, dp, p != nil)
		}
	}
}

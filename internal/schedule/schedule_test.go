package schedule

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

// legacy1F1B is the 1F1B algorithm that predates this package, inlined
// verbatim as the bit-identity reference.
func legacy1F1B(stage, stages, microbatches int) []Slot {
	var slots []Slot
	warmup := stages - stage - 1
	if warmup > microbatches {
		warmup = microbatches
	}
	steady := microbatches - warmup
	for m := 0; m < warmup; m++ {
		slots = append(slots, Slot{Kind: Forward, Microbatch: m})
	}
	for i := 0; i < steady; i++ {
		slots = append(slots, Slot{Kind: Forward, Microbatch: warmup + i})
		slots = append(slots, Slot{Kind: Backward, Microbatch: i})
	}
	for m := steady; m < microbatches; m++ {
		slots = append(slots, Slot{Kind: Backward, Microbatch: m})
	}
	return slots
}

func TestOneFOneBBitIdenticalToLegacy(t *testing.T) {
	g, err := New(OneFOneB, 0)
	if err != nil {
		t.Fatal(err)
	}
	for stages := 1; stages <= 8; stages++ {
		for mb := 1; mb <= 2*stages+3; mb++ {
			for stage := 0; stage < stages; stage++ {
				got, err := g.Slots(stage, stages, mb)
				if err != nil {
					t.Fatal(err)
				}
				want := legacy1F1B(stage, stages, mb)
				if len(got) != len(want) {
					t.Fatalf("stage %d/%d mb %d: %d slots, want %d", stage, stages, mb, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("stage %d/%d mb %d slot %d: %v, want %v", stage, stages, mb, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// pipelineDeadlockFree executes every stage's slot queue under the abstract
// dataflow semantics of the cluster simulator — per-stage in-order slot
// execution, a forward needs the upstream global stage's forward of the
// same microbatch, a backward needs the downstream backward, a weight pass
// needs its own backward — and reports whether all queues drain.
func pipelineDeadlockFree(t *testing.T, g Generator, stages, microbatches int) bool {
	t.Helper()
	v := g.Chunks()
	queues := make([][]Slot, stages)
	for s := 0; s < stages; s++ {
		slots, err := g.Slots(s, stages, microbatches)
		if err != nil {
			t.Fatalf("Slots(%d, %d, %d): %v", s, stages, microbatches, err)
		}
		if err := ValidateSlots(slots, microbatches, v); err != nil {
			t.Fatalf("stage %d: %v", s, err)
		}
		queues[s] = slots
	}
	last := stages*v - 1
	fDone := map[[2]int]bool{} // (global stage, microbatch)
	bDone := map[[2]int]bool{}
	wDone := map[[2]int]bool{}
	heads := make([]int, stages)
	for {
		progress := false
		for s := 0; s < stages; s++ {
			for heads[s] < len(queues[s]) {
				sl := queues[s][heads[s]]
				gs := sl.Chunk*stages + s
				ready := false
				switch sl.Kind {
				case Forward:
					ready = gs == 0 || fDone[[2]int{gs - 1, sl.Microbatch}]
				case Backward:
					ready = fDone[[2]int{gs, sl.Microbatch}] &&
						(gs == last || bDone[[2]int{gs + 1, sl.Microbatch}])
				case Weight:
					ready = bDone[[2]int{gs, sl.Microbatch}]
				}
				if !ready {
					break
				}
				switch sl.Kind {
				case Forward:
					fDone[[2]int{gs, sl.Microbatch}] = true
				case Backward:
					bDone[[2]int{gs, sl.Microbatch}] = true
				case Weight:
					wDone[[2]int{gs, sl.Microbatch}] = true
				}
				heads[s]++
				progress = true
			}
		}
		if !progress {
			break
		}
	}
	for s := 0; s < stages; s++ {
		if heads[s] < len(queues[s]) {
			return false
		}
	}
	return true
}

// TestPropertyGeneratorsValidAndDeadlockFree is the randomized schedule
// property test: every generator yields a valid, deadlock-free slot
// sequence for randomized (stages, microbatches, v).
func TestPropertyGeneratorsValidAndDeadlockFree(t *testing.T) {
	f := func(stagesSel, mbSel, vSel uint8, policySel uint8) bool {
		stages := 1 + int(stagesSel%6)
		v := 2 + int(vSel%3)
		var g Generator
		var mb int
		switch policySel % 4 {
		case 0:
			g, _ = New(OneFOneB, 0)
			mb = stages + int(mbSel%12)
		case 1:
			g, _ = New(GPipe, 0)
			mb = 1 + int(mbSel%12)
		case 2:
			if stages < 2 {
				stages = 2
			}
			g, _ = New(Interleaved, v)
			mb = stages * (1 + int(mbSel%4))
		case 3:
			g, _ = New(ZBH1, 0)
			mb = stages + int(mbSel%12)
		}
		if err := g.Check(stages, mb, true); err != nil {
			return false
		}
		return pipelineDeadlockFree(t, g, stages, mb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedShapes(t *testing.T) {
	g, err := New(Interleaved, 2)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := g.Slots(0, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 4 microbatches × 2 chunks = 8 virtual microbatches → 16 slots.
	if len(slots) != 16 {
		t.Fatalf("got %d slots, want 16", len(slots))
	}
	// Forward order is chunk-major within groups of stages: chunk 0 for
	// microbatches 0..1, then chunk 1 for 0..1, ...
	want := []Slot{
		{Forward, 0, 0}, {Forward, 1, 0}, {Forward, 0, 1}, {Forward, 1, 1},
	}
	for i, w := range want {
		if slots[i] != w {
			t.Fatalf("slot %d = %v, want %v", i, slots[i], w)
		}
	}
	// Interleaved must validate mb % stages == 0.
	if err := g.Check(2, 3, true); !errors.Is(err, ErrMicrobatches) {
		t.Fatalf("mb=3 stages=2 err = %v, want ErrMicrobatches", err)
	}
	if err := g.Check(1, 4, true); !errors.Is(err, ErrIncompatible) {
		t.Fatalf("stages=1 err = %v, want ErrIncompatible", err)
	}
}

// TestGPipeSlotOrder pins GPipe's exact slot sequence: every forward in
// microbatch order, then every backward in microbatch order, on any stage.
func TestGPipeSlotOrder(t *testing.T) {
	g, err := New(GPipe, 0)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := g.Slots(1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Slot{
		{Kind: Forward, Microbatch: 0}, {Kind: Forward, Microbatch: 1}, {Kind: Forward, Microbatch: 2},
		{Kind: Backward, Microbatch: 0}, {Kind: Backward, Microbatch: 1}, {Kind: Backward, Microbatch: 2},
	}
	if len(slots) != len(want) {
		t.Fatalf("got %v", slots)
	}
	for i := range want {
		if slots[i] != want[i] {
			t.Fatalf("slot %d = %v, want %v", i, slots[i], want[i])
		}
	}
}

// TestInFlightBound checks the memory property each flat schedule is
// chosen for: 1F1B holds at most stages − stage microbatches in flight on
// a stage, while GPipe holds every microbatch.
func TestInFlightBound(t *testing.T) {
	fb, _ := New(OneFOneB, 0)
	gp, _ := New(GPipe, 0)
	for stages := 1; stages <= 8; stages *= 2 {
		for stage := 0; stage < stages; stage++ {
			slots, err := fb.Slots(stage, stages, 2*stages)
			if err != nil {
				t.Fatal(err)
			}
			if got, bound := InFlight(slots), stages-stage; got > bound {
				t.Errorf("1F1B stage %d/%d: in-flight %d > bound %d", stage, stages, got, bound)
			}
		}
	}
	slots, err := gp.Slots(0, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := InFlight(slots); got != 8 {
		t.Fatalf("GPipe in-flight = %d, want 8", got)
	}
}

func TestZBH1MatchesOneFOneBInFlight(t *testing.T) {
	zb, _ := New(ZBH1, 0)
	fb, _ := New(OneFOneB, 0)
	for stages := 1; stages <= 8; stages++ {
		for _, mb := range []int{stages, 2 * stages, 3*stages + 1} {
			for stage := 0; stage < stages; stage++ {
				zs, err := zb.Slots(stage, stages, mb)
				if err != nil {
					t.Fatal(err)
				}
				fs, err := fb.Slots(stage, stages, mb)
				if err != nil {
					t.Fatal(err)
				}
				if InFlight(zs) != InFlight(fs) {
					t.Fatalf("stage %d/%d mb %d: ZB-H1 in-flight %d != 1F1B %d",
						stage, stages, mb, InFlight(zs), InFlight(fs))
				}
			}
		}
	}
}

func TestInterleavedBubbleCostShrinks(t *testing.T) {
	fb, _ := New(OneFOneB, 0)
	il, _ := New(Interleaved, 2)
	zb, _ := New(ZBH1, 0)
	f, b, w := int64(100), int64(200), int64(80)
	base := fb.BubbleCost(f, b, w, 4)
	if got := il.BubbleCost(f, b, w, 4); got >= base {
		t.Fatalf("interleaved2 bubble %d not < 1F1B %d", got, base)
	}
	if got := zb.BubbleCost(f, b, w, 4); got >= base {
		t.Fatalf("zb-h1 bubble %d not < 1F1B %d", got, base)
	}
	if got := fb.BubbleCost(f, b, w, 1); got != 0 {
		t.Fatalf("single-stage bubble = %d, want 0", got)
	}
}

func TestParseSpecs(t *testing.T) {
	cases := map[string]Spec{
		"1f1b":           {Policy: OneFOneB},
		"gpipe":          {Policy: GPipe},
		"zb-h1":          {Policy: ZBH1},
		"zbh1":           {Policy: ZBH1},
		"interleaved":    {Policy: Interleaved, Virtual: 2},
		"interleaved2":   {Policy: Interleaved, Virtual: 2},
		"interleaved4":   {Policy: Interleaved, Virtual: 4},
		" Interleaved3 ": {Policy: Interleaved, Virtual: 3},
	}
	for name, want := range cases {
		got, err := Parse(name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("Parse(%q) = %+v, want %+v", name, got, want)
		}
	}
	for _, bad := range []string{"", "zb-v", "interleaved1", "interleavedx", "1f2b"} {
		_, err := Parse(bad)
		if !errors.Is(err, ErrPolicy) {
			t.Fatalf("Parse(%q) err = %v, want ErrPolicy", bad, err)
		}
		if bad != "" && !strings.Contains(err.Error(), "interleaved") && !strings.Contains(err.Error(), "valid") {
			t.Fatalf("Parse(%q) error does not spell the menu: %v", bad, err)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, name := range []string{"1f1b", "gpipe", "interleaved2", "interleaved3", "zb-h1"} {
		spec, err := Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Name() != name {
			t.Fatalf("Parse(%q).Name() = %q", name, spec.Name())
		}
		if _, err := spec.Generator(); err != nil {
			t.Fatalf("%q: %v", name, err)
		}
	}
}

func TestTypedErrors(t *testing.T) {
	g, _ := New(OneFOneB, 0)
	if _, err := g.Slots(4, 4, 8); !errors.Is(err, ErrStage) {
		t.Fatalf("stage error = %v, want ErrStage", err)
	}
	if _, err := g.Slots(0, 4, 0); !errors.Is(err, ErrMicrobatches) {
		t.Fatalf("microbatch error = %v, want ErrMicrobatches", err)
	}
	if _, err := New(Policy(99), 0); !errors.Is(err, ErrPolicy) {
		t.Fatal("unknown policy must return ErrPolicy")
	}
	if _, err := New(Interleaved, 1); !errors.Is(err, ErrIncompatible) {
		t.Fatal("interleaved with v=1 must return ErrIncompatible")
	}
	for _, err := range []error{ErrStage, ErrMicrobatches, ErrPolicy, ErrIncompatible} {
		if !IsScheduleError(err) {
			t.Fatalf("IsScheduleError(%v) = false", err)
		}
	}
	if IsScheduleError(errors.New("other")) {
		t.Fatal("IsScheduleError must reject unrelated errors")
	}
}

// TestCheckBareMatchesExplained holds every generator's Check without a
// message to Check with one: the same accept/reject decision, and a bare
// sentinel the explained error wraps.
func TestCheckBareMatchesExplained(t *testing.T) {
	for _, spec := range []Spec{{Policy: OneFOneB}, {Policy: GPipe}, {Policy: Interleaved, Virtual: 2},
		{Policy: Interleaved, Virtual: 3}, {Policy: ZBH1}} {
		g, err := spec.Generator()
		if err != nil {
			t.Fatal(err)
		}
		for stages := -1; stages <= 9; stages++ {
			for mb := -1; mb <= 40; mb++ {
				bare, full := g.Check(stages, mb, false), g.Check(stages, mb, true)
				if (bare == nil) != (full == nil) || (bare != nil && !errors.Is(full, bare)) {
					t.Fatalf("%s: Check(%d, %d) = %v bare, %v explained", g.Name(), stages, mb, bare, full)
				}
			}
		}
	}
}

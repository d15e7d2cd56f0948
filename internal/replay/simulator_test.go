package replay

import (
	"errors"
	"testing"

	"lumos/internal/execgraph"
)

// TestSimulatorReuseMatchesFreshRuns verifies the pooled-simulator
// contract: a Simulator reused across runs (same graph, then retimed
// columns, then the plain graph again) must produce exactly the times a
// fresh Run produces each time, and its retimed run must match the
// compiled engine replaying the same columns.
func TestSimulatorReuseMatchesFreshRuns(t *testing.T) {
	_, g := simGraph(t, 2, 2, 1, 4, 47)
	fresh, err := Run(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim := NewSimulator(DefaultOptions())

	first, err := sim.Run(g, Timings{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Makespan != fresh.Makespan {
		t.Fatalf("reused sim makespan %d != fresh %d", first.Makespan, fresh.Makespan)
	}

	// A retimed run in between must not contaminate subsequent plain runs.
	tm := NewTimings(g)
	scaleTasks(g, tm, func(*execgraph.Task) bool { return true }, 0.5)
	scaled, err := sim.Run(g, tm)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Makespan >= fresh.Makespan {
		t.Fatalf("halving every kernel did not speed up: %d vs %d", scaled.Makespan, fresh.Makespan)
	}
	compiled, err := Compile(g, DefaultOptions()).Run(tm, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, scaled, compiled, "retimed")

	again, err := sim.Run(g, Timings{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Makespan != fresh.Makespan {
		t.Fatalf("post-retime reuse makespan %d != fresh %d", again.Makespan, fresh.Makespan)
	}
	for i := range fresh.Start {
		if again.Start[i] != fresh.Start[i] || again.End[i] != fresh.End[i] {
			t.Fatalf("task %d times differ after simulator reuse", i)
		}
	}
}

// TestSimulatorRebinds verifies a pooled simulator can move between graphs
// of different shapes.
func TestSimulatorRebinds(t *testing.T) {
	_, small := simGraph(t, 2, 1, 1, 4, 49)
	_, large := simGraph(t, 2, 2, 1, 4, 49)
	sim := NewSimulator(DefaultOptions())
	for _, g := range []*execgraph.Graph{small, large, small} {
		want, err := Run(g, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := sim.Run(g, Timings{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan != want.Makespan || got.Executed != want.Executed {
			t.Fatalf("rebound sim: makespan %d/%d executed %d/%d",
				got.Makespan, want.Makespan, got.Executed, want.Executed)
		}
	}
}

// TestDeadlockError verifies an unexecutable graph surfaces as a typed
// DeadlockError identifying the stuck tasks, instead of a silent count
// mismatch left for callers to notice.
func TestDeadlockError(t *testing.T) {
	g := execgraph.NewGraph(1)
	p := g.EnsureProc(0, false, 1)
	a := g.AddTask(execgraph.Task{Kind: execgraph.TaskCPU, Proc: p, Name: "ok", Dur: 10})
	b := g.AddTask(execgraph.Task{Kind: execgraph.TaskCPU, Proc: p, Name: "stuck", Dur: 10})
	_ = a
	// Corrupt the in-degree: b waits for a dependency that will never
	// resolve.
	g.Tasks[b].NFixedIn = 1

	_, err := Run(g, DefaultOptions())
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want *DeadlockError", err)
	}
	if dl.Executed != 1 || dl.Total != 2 {
		t.Fatalf("deadlock counts: %d/%d", dl.Executed, dl.Total)
	}
	if len(dl.Stuck) != 1 || dl.Stuck[0] != b {
		t.Fatalf("stuck sample = %v, want [%d]", dl.Stuck, b)
	}
}

// TestUncoupledRetimedComm checks retimed columns reach uncoupled comm
// kernels too, identically on both engines.
func TestUncoupledRetimedComm(t *testing.T) {
	_, g := simGraph(t, 2, 2, 2, 4, 51)
	opts := DefaultOptions()
	opts.CoupleCollectives = false
	var firstComm int32 = -1
	for i := range g.Tasks {
		if g.Tasks[i].IsComm() {
			firstComm = int32(i)
			break
		}
	}
	if firstComm < 0 {
		t.Fatal("no comm kernels")
	}
	tm := NewTimings(g)
	tm.Dur[firstComm] = 12345
	res, err := NewSimulator(opts).Run(g, tm)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.End[firstComm] - res.Start[firstComm]; got != 12345 {
		t.Fatalf("uncoupled comm kernel replayed %d, want overridden 12345", got)
	}
	compiled, err := Compile(g, opts).Run(tm, NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	mustMatch(t, res, compiled, "uncoupled retimed")
}

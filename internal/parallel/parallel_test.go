package parallel

import (
	"reflect"
	"testing"
	"testing/quick"

	"lumos/internal/model"
	"lumos/internal/topology"
	"lumos/internal/trace"
)

func mapping(t *testing.T, tp, pp, dp int) topology.Mapping {
	t.Helper()
	m, err := topology.NewMapping(tp, pp, dp)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildScheduleGPipe(t *testing.T) {
	slots, err := BuildSchedule(GPipe, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []Slot{
		{Kind: SlotForward, Microbatch: 0}, {Kind: SlotForward, Microbatch: 1}, {Kind: SlotForward, Microbatch: 2},
		{Kind: SlotBackward, Microbatch: 0}, {Kind: SlotBackward, Microbatch: 1}, {Kind: SlotBackward, Microbatch: 2},
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

func TestBuildSchedule1F1B(t *testing.T) {
	// Stage 0 of 4 stages with 8 microbatches: 3 warmup forwards, then
	// 5 steady (F,B) pairs, then 3 cooldown backwards.
	slots, err := BuildSchedule(OneFOneB, 0, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(slots, 8); err != nil {
		t.Fatal(err)
	}
	if slots[0].Kind != SlotForward || slots[1].Kind != SlotForward || slots[2].Kind != SlotForward {
		t.Fatal("warmup should be forwards")
	}
	if slots[3] != (Slot{Kind: SlotForward, Microbatch: 3}) || slots[4] != (Slot{Kind: SlotBackward, Microbatch: 0}) {
		t.Fatalf("steady state starts wrong: %v", slots[3:5])
	}
	// Last stage alternates immediately.
	last, _ := BuildSchedule(OneFOneB, 3, 4, 8)
	if last[0] != (Slot{Kind: SlotForward, Microbatch: 0}) || last[1] != (Slot{Kind: SlotBackward, Microbatch: 0}) {
		t.Fatalf("last stage should be strictly 1F1B: %v", last[:2])
	}
}

func TestBuildScheduleErrors(t *testing.T) {
	if _, err := BuildSchedule(OneFOneB, 4, 4, 8); err == nil {
		t.Fatal("stage out of range must fail")
	}
	if _, err := BuildSchedule(OneFOneB, 0, 4, 0); err == nil {
		t.Fatal("zero microbatches must fail")
	}
}

func TestPropertyScheduleValid(t *testing.T) {
	f := func(stageSel, stagesSel, mbSel uint8, gpipe bool) bool {
		stages := 1 + int(stagesSel%8)
		stage := int(stageSel) % stages
		mb := stages + int(mbSel%16)
		policy := OneFOneB
		if gpipe {
			policy = GPipe
		}
		slots, err := BuildSchedule(policy, stage, stages, mb)
		if err != nil {
			return false
		}
		return ValidateSchedule(slots, mb) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestInFlightBound(t *testing.T) {
	// 1F1B peak in-flight microbatches on stage s is ≤ stages − s, which is
	// the schedule's memory advantage over GPipe.
	for stages := 1; stages <= 8; stages *= 2 {
		for stage := 0; stage < stages; stage++ {
			slots, err := BuildSchedule(OneFOneB, stage, stages, 2*stages)
			if err != nil {
				t.Fatal(err)
			}
			if got, bound := InFlight(slots), stages-stage; got > bound {
				t.Errorf("stage %d/%d: in-flight %d > bound %d", stage, stages, got, bound)
			}
		}
	}
	// GPipe holds everything.
	slots, _ := BuildSchedule(GPipe, 0, 4, 8)
	if InFlight(slots) != 8 {
		t.Fatalf("GPipe in-flight = %d, want 8", InFlight(slots))
	}
}

func baseConfig(t *testing.T, tp, pp, dp int) Config {
	cfg := DefaultConfig(model.GPT3_15B(), mapping(t, tp, pp, dp))
	cfg.Microbatches = 2 * pp
	if cfg.Microbatches < 4 {
		cfg.Microbatches = 4
	}
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := baseConfig(t, 2, 2, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Map.PP = 5 // 48 layers % 5 != 0
	if err := bad.Validate(); err == nil {
		t.Fatal("indivisible layers must be rejected")
	}
	bad = good
	bad.Microbatches = 1
	bad.Map.PP = 2
	if err := bad.Validate(); err == nil {
		t.Fatal("1F1B with microbatches < PP must be rejected")
	}
}

func TestLocalParams(t *testing.T) {
	cfg := baseConfig(t, 2, 2, 1)
	p0 := cfg.LocalParams(0)
	p1 := cfg.LocalParams(1)
	if p0 <= p1 {
		t.Fatalf("stage 0 (with embedding) should hold more params: %d vs %d", p0, p1)
	}
	perLayer := cfg.Arch.LayerParams() / int64(cfg.Map.TP)
	if p1 != int64(cfg.LayersPerStage())*perLayer {
		t.Fatalf("stage 1 params = %d", p1)
	}
}

func TestBuildProgramStructure(t *testing.T) {
	cfg := baseConfig(t, 2, 2, 2)
	prog, err := BuildProgram(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Threads) != 2 {
		t.Fatalf("want 2 CPU threads, got %d", len(prog.Threads))
	}
	if prog.NumInstrs() == 0 {
		t.Fatal("empty program")
	}
	// Main thread must end with device sync then iteration end.
	main := prog.Threads[0]
	if main[len(main)-2].Kind != IDeviceSync {
		t.Fatal("main thread should end with cudaDeviceSynchronize before the closer")
	}
	// Every backward launch must live on the autograd thread.
	for _, in := range prog.Threads[0] {
		if in.Kind == ILaunch && in.Op.Pass == trace.PassBackward {
			t.Fatalf("backward op %q launched on main thread", in.Op.Name)
		}
	}
	// Signals pair up.
	sig, wait := 0, 0
	for _, th := range prog.Threads {
		for _, in := range th {
			switch in.Kind {
			case ISignal:
				sig++
			case IWaitSignal:
				wait++
			}
		}
	}
	if sig != wait || sig == 0 {
		t.Fatalf("signals %d, waits %d", sig, wait)
	}
}

func TestBuildProgramCommMetadata(t *testing.T) {
	cfg := baseConfig(t, 2, 4, 2)
	for rank := 0; rank < cfg.Map.WorldSize(); rank++ {
		prog, err := BuildProgram(cfg, rank)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range prog.Threads {
			for _, in := range th {
				if in.Kind != ILaunch || !in.Op.IsComm() {
					continue
				}
				if in.CommID == 0 {
					t.Fatalf("rank %d: comm op %q without communicator", rank, in.Op.Name)
				}
				if len(in.CommRanks) < 2 {
					t.Fatalf("rank %d: comm op %q with %d participants", rank, in.Op.Name, len(in.CommRanks))
				}
				found := false
				for _, r := range in.CommRanks {
					if r == rank {
						found = true
					}
				}
				if !found {
					t.Fatalf("rank %d not a member of its own collective %q %v", rank, in.Op.Name, in.CommRanks)
				}
			}
		}
	}
}

// TestP2PSequenceMatching verifies the payload-keyed sequence numbers: for
// every send instruction there must be exactly one matching recv with the
// same (CommID, CommSeq) on the peer rank.
func TestP2PSequenceMatching(t *testing.T) {
	cfg := baseConfig(t, 2, 4, 1)
	type key struct {
		id, seq int64
	}
	sends := map[key]int{}
	recvs := map[key]int{}
	for rank := 0; rank < cfg.Map.WorldSize(); rank++ {
		prog, err := BuildProgram(cfg, rank)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range prog.Threads {
			for _, in := range th {
				if in.Kind != ILaunch || !in.Op.IsComm() || !in.Op.Comm.IsPointToPoint() {
					continue
				}
				k := key{in.CommID, in.CommSeq}
				if in.Op.Comm == trace.CommSend {
					sends[k]++
				} else {
					recvs[k]++
				}
			}
		}
	}
	if len(sends) == 0 {
		t.Fatal("no p2p traffic in a PP=4 program")
	}
	for k, n := range sends {
		if n != 1 || recvs[k] != 1 {
			t.Fatalf("p2p %v: %d sends, %d recvs (want 1/1)", k, n, recvs[k])
		}
	}
	for k, n := range recvs {
		if sends[k] != 1 || n != 1 {
			t.Fatalf("p2p %v: unmatched recv", k)
		}
	}
}

// TestCollectiveSPMDConsistency: all members of a collective must agree on
// payload and participant set, and issue the same number of ops per
// communicator.
func TestCollectiveSPMDConsistency(t *testing.T) {
	cfg := baseConfig(t, 2, 2, 2)
	type commOp struct {
		seq   int64
		bytes int64
	}
	byComm := map[int64]map[int][]commOp{} // commID → rank → ops
	for rank := 0; rank < cfg.Map.WorldSize(); rank++ {
		prog, err := BuildProgram(cfg, rank)
		if err != nil {
			t.Fatal(err)
		}
		for _, th := range prog.Threads {
			for _, in := range th {
				if in.Kind != ILaunch || !in.Op.IsComm() || in.Op.Comm.IsPointToPoint() {
					continue
				}
				m := byComm[in.CommID]
				if m == nil {
					m = map[int][]commOp{}
					byComm[in.CommID] = m
				}
				m[rank] = append(m[rank], commOp{in.CommSeq, in.Op.CommBytes})
			}
		}
	}
	for commID, perRank := range byComm {
		var ref []commOp
		for _, ops := range perRank {
			ref = ops
			break
		}
		for rank, ops := range perRank {
			if len(ops) != len(ref) {
				t.Fatalf("comm %d: rank %d issued %d ops, another rank %d", commID, rank, len(ops), len(ref))
			}
			for i := range ops {
				if ops[i] != ref[i] {
					t.Fatalf("comm %d: rank %d op %d = %+v, want %+v", commID, rank, i, ops[i], ref[i])
				}
			}
		}
	}
}

func TestBucketPlan(t *testing.T) {
	cfg := baseConfig(t, 2, 2, 2)
	n0 := cfg.NumBuckets(0)
	n1 := cfg.NumBuckets(1)
	if n0 == 0 || n1 == 0 {
		t.Fatal("DP>1 must produce buckets")
	}
	if n0 < n1 {
		t.Fatalf("stage 0 (embedding grads) should need at least as many buckets: %d vs %d", n0, n1)
	}
	noDp := cfg
	noDp.Map.DP = 1
	if noDp.NumBuckets(0) != 0 {
		t.Fatal("DP=1 must have no gradient buckets")
	}
}

func TestBuildProgramRankRange(t *testing.T) {
	cfg := baseConfig(t, 2, 2, 2)
	if _, err := BuildProgram(cfg, -1); err == nil {
		t.Fatal("negative rank must fail")
	}
	if _, err := BuildProgram(cfg, cfg.Map.WorldSize()); err == nil {
		t.Fatal("rank >= world must fail")
	}
}

// TestBuildProgramsMatchesBuildProgram is the stamp-equivalence property:
// every program BuildPrograms stamps from a stage template must equal the
// program BuildProgram builds directly for that rank, across all four
// schedules, TP/PP/DP degrees, microbatch counts and sequence parallelism.
// A shallow arch keeps the grid fast; the stamped fields do not depend on
// depth.
func TestBuildProgramsMatchesBuildProgram(t *testing.T) {
	arch := model.GPT3_15B().WithLayers(8)
	type sched struct {
		policy  SchedulePolicy
		virtual int
	}
	schedules := []sched{{OneFOneB, 0}, {GPipe, 0}, {Interleaved, 2}, {ZBH1, 0}}
	checked := 0
	for _, sc := range schedules {
		for _, tp := range []int{1, 2, 4} {
			for _, pp := range []int{1, 2, 4} {
				for _, dp := range []int{1, 2, 3} {
					for _, mb := range []int{2, 4, 8} {
						for _, sp := range []bool{false, true} {
							cfg := DefaultConfig(arch, mapping(t, tp, pp, dp))
							cfg.Microbatches = mb
							cfg.Schedule = sc.policy
							cfg.VirtualStages = sc.virtual
							cfg.SequenceParallel = sp
							progs, err := BuildPrograms(cfg)
							if cfg.Validate() != nil {
								if err == nil {
									t.Fatalf("%+v: BuildPrograms accepted an invalid config", cfg.Map)
								}
								continue
							}
							if err != nil {
								t.Fatal(err)
							}
							if len(progs) != cfg.Map.WorldSize() {
								t.Fatalf("%d programs for world %d", len(progs), cfg.Map.WorldSize())
							}
							for rank, got := range progs {
								want, err := BuildProgram(cfg, rank)
								if err != nil {
									t.Fatal(err)
								}
								if !reflect.DeepEqual(got, want) {
									t.Fatalf("schedule %v/%d tp=%d pp=%d dp=%d mb=%d sp=%v: stamped program of rank %d differs from BuildProgram's",
										sc.policy, sc.virtual, tp, pp, dp, mb, sp, rank)
								}
								checked++
							}
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no configuration was checked")
	}
	t.Logf("%d rank programs checked", checked)
}

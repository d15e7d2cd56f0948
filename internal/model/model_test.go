package model

import (
	"testing"
	"testing/quick"

	"lumos/internal/trace"
)

func TestPresetsValid(t *testing.T) {
	for _, a := range append(Table1(), Table2()...) {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestTable1Shapes(t *testing.T) {
	// The paper's Table 1 rows (d_head = 128 everywhere).
	want := []struct {
		name               string
		layers, dm, ff, dh int
	}{
		{"GPT-3 15B", 48, 6144, 12288, 128},
		{"GPT-3 44B", 48, 12288, 24576, 128},
		{"GPT-3 117B", 96, 12288, 24576, 128},
		{"GPT-3 175B", 96, 12288, 49152, 128},
	}
	got := Table1()
	for i, w := range want {
		a := got[i]
		if a.Name != w.name || a.Layers != w.layers || a.Hidden != w.dm || a.FFN != w.ff || a.HeadDim != w.dh {
			t.Errorf("row %d = %+v, want %+v", i, a, w)
		}
	}
}

func TestParamCounts(t *testing.T) {
	// 175B and 117B match the nominal sizes closely; 15B is ~15B.
	cases := []struct {
		arch Arch
		lo   float64
		hi   float64
	}{
		{GPT3_15B(), 14e9, 16e9},
		{GPT3_117B(), 110e9, 122e9},
		{GPT3_175B(), 170e9, 180e9},
	}
	for _, c := range cases {
		p := float64(c.arch.Params())
		if p < c.lo || p > c.hi {
			t.Errorf("%s params = %.1fB, want in [%.0fB, %.0fB]",
				c.arch.Name, p/1e9, c.lo/1e9, c.hi/1e9)
		}
	}
}

func TestParamsDecomposition(t *testing.T) {
	a := GPT3_15B()
	total := int64(a.Layers)*a.LayerParams() + a.EmbeddingParams()
	if total != a.Params() {
		t.Fatalf("layer*L + embedding = %d, Params() = %d", total, a.Params())
	}
}

func TestLayerOpsStructure(t *testing.T) {
	a := GPT3_15B()
	for _, tp := range []int{1, 2, 4} {
		sc := ShapeConfig{TP: tp, MicrobatchSize: 1}
		fwd := a.LayerForward(sc, 3)
		bwd := a.LayerBackward(sc, 3)

		wantComm := 0
		if tp > 1 {
			wantComm = 2
		}
		if got := countComm(fwd); got != wantComm {
			t.Errorf("TP=%d forward comm ops = %d, want %d", tp, got, wantComm)
		}
		if got := countComm(bwd); got != wantComm {
			t.Errorf("TP=%d backward comm ops = %d, want %d", tp, got, wantComm)
		}
		for _, op := range fwd {
			if op.Pass != trace.PassForward {
				t.Errorf("forward op %s tagged %v", op.Name, op.Pass)
			}
			if op.Layer != 3 {
				t.Errorf("forward op %s layer = %d", op.Name, op.Layer)
			}
		}
		for _, op := range bwd {
			if op.Pass != trace.PassBackward {
				t.Errorf("backward op %s tagged %v", op.Name, op.Pass)
			}
		}
	}
}

func countComm(ops []Op) int {
	n := 0
	for _, op := range ops {
		if op.IsComm() {
			n++
		}
	}
	return n
}

func sumFLOPs(ops []Op) int64 {
	var f int64
	for _, op := range ops {
		f += op.FLOPs
	}
	return f
}

func TestLayerFLOPsMatchAnalytical(t *testing.T) {
	// Forward transformer-layer FLOPs ≈ 2·tokens·(4H² + 2HF) + attention
	// 4·B·S²·H, the standard counting. Allow 5% slack for rounding.
	a := GPT3_15B()
	sc := ShapeConfig{TP: 1, MicrobatchSize: 1}
	got := float64(sumFLOPs(a.LayerForward(sc, 0)))
	h := float64(a.Hidden)
	f := float64(a.FFN)
	s := float64(a.SeqLen)
	want := 2*s*(4*h*h+2*h*f) + 4*s*s*h
	if got < 0.95*want || got > 1.05*want {
		t.Fatalf("layer forward FLOPs = %.3g, want ≈ %.3g", got, want)
	}
}

func TestBackwardRoughlyTwiceForward(t *testing.T) {
	a := GPT3_15B()
	sc := ShapeConfig{TP: 2, MicrobatchSize: 1}
	fwd := sumFLOPs(a.LayerForward(sc, 0))
	bwd := sumFLOPs(a.LayerBackward(sc, 0))
	ratio := float64(bwd) / float64(fwd)
	if ratio < 1.7 || ratio > 2.6 {
		t.Fatalf("backward/forward FLOP ratio = %.2f, want ~2", ratio)
	}
}

func TestPropertyTPDividesWork(t *testing.T) {
	// Doubling TP should halve per-rank GEMM FLOPs (communication aside).
	a := GPT3_15B()
	f := func(tpSel uint8) bool {
		tp := 1 << (tpSel % 3) // 1, 2, 4
		sc1 := ShapeConfig{TP: tp, MicrobatchSize: 1}
		sc2 := ShapeConfig{TP: tp * 2, MicrobatchSize: 1}
		g1 := gemmFLOPs(a.LayerForward(sc1, 0))
		g2 := gemmFLOPs(a.LayerForward(sc2, 0))
		return g2*2 == g1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func gemmFLOPs(ops []Op) int64 {
	var f int64
	for _, op := range ops {
		if op.Class == trace.KCGEMM {
			f += op.FLOPs
		}
	}
	return f
}

func TestActivationBytes(t *testing.T) {
	a := GPT3_15B()
	// A pipeline send carries one microbatch's boundary activation:
	// B=1, S=2048, H=6144, bf16: 2048*6144*2 = 24 MiB.
	send := a.PPSend(ShapeConfig{TP: 2, MicrobatchSize: 1}, trace.PassForward)
	if got := send.CommBytes; got != 2048*6144*2 {
		t.Fatalf("activation bytes = %d", got)
	}
}

func TestOptimizerOps(t *testing.T) {
	a := GPT3_15B()
	ops := a.OptimizerOps(1_000_003, 4)
	if len(ops) != 4 {
		t.Fatalf("want 4 chunks, got %d", len(ops))
	}
	var bytes int64
	for _, op := range ops {
		if op.Class != trace.KCOptimizer || op.Pass != trace.PassOptimizer {
			t.Fatalf("bad op %+v", op)
		}
		bytes += op.Bytes
	}
	if bytes != 1_000_003*26 {
		t.Fatalf("optimizer bytes = %d", bytes)
	}
	if got := a.OptimizerOps(10, 0); len(got) != 1 {
		t.Fatalf("nChunks<1 should clamp to 1, got %d ops", len(got))
	}
}

func TestPPSendRecvDirections(t *testing.T) {
	a := GPT3_15B()
	sc := ShapeConfig{TP: 2, MicrobatchSize: 1}
	fs := a.PPSend(sc, trace.PassForward)
	if fs.Group != GroupPPNext || fs.Comm != trace.CommSend {
		t.Fatalf("forward send = %+v", fs)
	}
	br := a.PPRecv(sc, trace.PassBackward)
	if br.Group != GroupPPNext || br.Comm != trace.CommRecv {
		t.Fatalf("backward recv = %+v", br)
	}
	fr := a.PPRecv(sc, trace.PassForward)
	if fr.Group != GroupPPPrev {
		t.Fatalf("forward recv = %+v", fr)
	}
	bs := a.PPSend(sc, trace.PassBackward)
	if bs.Group != GroupPPPrev {
		t.Fatalf("backward send = %+v", bs)
	}
}

func TestWithHelpers(t *testing.T) {
	a := GPT3_15B().WithLayers(64)
	if a.Layers != 64 {
		t.Fatal("WithLayers")
	}
	b := GPT3_15B().WithHidden(9216, 18432)
	if b.Hidden != 9216 || b.FFN != 18432 || b.Heads != 72 {
		t.Fatalf("WithHidden = %+v", b)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	bad := GPT3_15B()
	bad.Heads = 47 // 47*128 != 6144
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched heads must be rejected")
	}
	bad = GPT3_15B()
	bad.Layers = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero layers must be rejected")
	}
}

func TestSplitBackwardConservesWork(t *testing.T) {
	// The zero-bubble B/W split must carry exactly the fused backward's
	// FLOPs and HBM bytes, per class, so split-backward schedules do the
	// same total work as 1F1B.
	for _, sp := range []bool{false, true} {
		c := ShapeConfig{TP: 2, MicrobatchSize: 2, SequenceParallel: sp}
		a := GPT3_15B()
		type agg struct{ flops, bytes, commBytes int64 }
		sum := func(opss ...[]Op) map[trace.KernelClass]agg {
			m := map[trace.KernelClass]agg{}
			for _, ops := range opss {
				for _, op := range ops {
					e := m[op.Class]
					e.flops += op.FLOPs
					e.bytes += op.Bytes
					e.commBytes += op.CommBytes
					m[op.Class] = e
				}
			}
			return m
		}
		fused := sum(a.LayerBackward(c, 0))
		split := sum(a.LayerBackwardInput(c, 0), a.LayerBackwardWeight(c, 0))
		for class, f := range fused {
			if split[class] != f {
				t.Fatalf("sp=%v class %v: split %+v != fused %+v", sp, class, split[class], f)
			}
		}
		if len(split) != len(fused) {
			t.Fatalf("sp=%v: class sets differ: %v vs %v", sp, split, fused)
		}
		// W is pure local compute: no communication ops at all.
		for _, op := range a.LayerBackwardWeight(c, 0) {
			if op.IsComm() {
				t.Fatalf("weight pass contains comm op %q", op.Name)
			}
		}
	}
}

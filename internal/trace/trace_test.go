package trace

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestCategoryRoundTrip(t *testing.T) {
	for c := CatCPUOp; c <= CatUserAnnotation; c++ {
		got, err := ParseCategory(c.String())
		if err != nil {
			t.Fatalf("ParseCategory(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("round trip %v != %v", got, c)
		}
	}
	if _, err := ParseCategory("nonsense"); err == nil {
		t.Fatal("expected error for unknown category")
	}
}

// decodeOne encodes e as a one-event Kineto trace and decodes it back.
func decodeOne(t *testing.T, e Event) Event {
	t.Helper()
	tr := New(0)
	tr.Add(e)
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != 1 {
		t.Fatalf("decoded %d events, want 1", len(got.Events))
	}
	return got.Events[0]
}

func TestRuntimeKindRoundTrip(t *testing.T) {
	for k := RuntimeLaunchKernel; k <= RuntimeDeviceSynchronize; k++ {
		e := Event{Name: k.String(), Cat: CatCUDARuntime, Dur: 1, Runtime: k, Stream: -1, PeerRank: -1, Layer: -1, Microbatch: -1}
		if got := decodeOne(t, e).Runtime; got != k {
			t.Fatalf("round trip %v != %v", got, k)
		}
	}
}

func TestCommKindRoundTrip(t *testing.T) {
	for c := CommAllReduce; c <= CommAllToAll; c++ {
		e := Event{Name: c.String(), Cat: CatKernel, Dur: 1, Class: KCComm, Comm: c, Stream: 20, PeerRank: -1, Layer: -1, Microbatch: -1}
		if got := decodeOne(t, e).Comm; got != c {
			t.Fatalf("round trip %v != %v", got, c)
		}
	}
	if !CommSend.IsPointToPoint() || !CommRecv.IsPointToPoint() || CommAllReduce.IsPointToPoint() {
		t.Fatal("IsPointToPoint misclassifies")
	}
}

func sampleTrace() *Trace {
	tr := New(3)
	tr.Meta["model"] = "test"
	tr.Add(Event{
		Name: "aten::mm", Cat: CatCPUOp, Ts: 1000, Dur: 5000, PID: 3, TID: 1,
		Stream: -1, PeerRank: -1, Layer: 7, Microbatch: 2, Pass: PassForward,
	})
	tr.Add(Event{
		Name: "cudaLaunchKernel", Cat: CatCUDARuntime, Ts: 2000, Dur: 3000, PID: 3, TID: 1,
		Runtime: RuntimeLaunchKernel, Correlation: 99, Stream: 7,
		PeerRank: -1, Layer: 7, Microbatch: 2, Pass: PassForward,
	})
	tr.Add(Event{
		Name: "gemm_kernel", Cat: CatKernel, Ts: 9000, Dur: 40000, PID: 3, TID: 7,
		Correlation: 99, Stream: 7, Class: KCGEMM, FLOPs: 123456, Bytes: 7890,
		PeerRank: -1, Layer: 7, Microbatch: 2, Pass: PassForward,
	})
	tr.Add(Event{
		Name: "ncclDevKernel_AllReduce", Cat: CatKernel, Ts: 50000, Dur: 20000, PID: 3, TID: 20,
		Correlation: 100, Stream: 20, Class: KCComm, Comm: CommAllReduce,
		CommID: 42, CommSeq: 5, CommBytes: 1 << 20, PeerRank: -1,
		Layer: 7, Microbatch: 2, Pass: PassForward,
	})
	return tr
}

func TestJSONRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := EncodeJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rank != tr.Rank {
		t.Fatalf("rank %d != %d", got.Rank, tr.Rank)
	}
	if got.Meta["model"] != "test" {
		t.Fatal("meta lost")
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d != %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		a, b := tr.Events[i], got.Events[i]
		if a.Name != b.Name || a.Cat != b.Cat || a.Ts != b.Ts || a.Dur != b.Dur ||
			a.TID != b.TID || a.Correlation != b.Correlation || a.Class != b.Class ||
			a.Comm != b.Comm || a.CommID != b.CommID || a.CommSeq != b.CommSeq ||
			a.CommBytes != b.CommBytes || a.Layer != b.Layer || a.Microbatch != b.Microbatch ||
			a.Pass != b.Pass || a.Runtime != b.Runtime || a.FLOPs != b.FLOPs || a.Bytes != b.Bytes {
			t.Fatalf("event %d mismatch:\n  in:  %+v\n  out: %+v", i, a, b)
		}
	}
}

func TestJSONSkipsUnknownCategories(t *testing.T) {
	in := `{"schemaVersion":1,"traceEvents":[
		{"name":"py","cat":"python_function","ph":"X","ts":1,"dur":2,"pid":0,"tid":1},
		{"name":"op","cat":"cpu_op","ph":"X","ts":1,"dur":2,"pid":0,"tid":1},
		{"name":"marker","cat":"cpu_op","ph":"i","ts":5,"pid":0,"tid":1}
	]}`
	tr, err := DecodeJSON(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 || tr.Events[0].Name != "op" {
		t.Fatalf("got %d events: %+v", len(tr.Events), tr.Events)
	}
}

func TestSpanAndDuration(t *testing.T) {
	tr := sampleTrace()
	start, end, ok := tr.Span()
	if !ok || start != 1000 || end != 70000 {
		t.Fatalf("span = %d..%d ok=%v", start, end, ok)
	}
	if tr.Duration() != 69000 {
		t.Fatalf("duration = %d", tr.Duration())
	}
	empty := New(0)
	if _, _, ok := empty.Span(); ok {
		t.Fatal("empty trace should have no span")
	}
}

// TestStreamsAndThreads: Threads lists the CPU threads, never the GPU
// streams (7 and 20) that share the TID field.
func TestStreamsAndThreads(t *testing.T) {
	tr := sampleTrace()
	if th := tr.Threads(); len(th) != 1 || th[0] != 1 {
		t.Fatalf("threads = %v", th)
	}
}

func TestValidate(t *testing.T) {
	tr := sampleTrace()
	if err := tr.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := New(0)
	bad.Add(Event{Name: "k", Cat: CatKernel, Ts: 0, Dur: 10, TID: 7})
	if err := bad.Validate(); err == nil {
		t.Fatal("kernel without correlation must be rejected")
	}
	neg := New(0)
	neg.Add(Event{Name: "x", Cat: CatCPUOp, Ts: 0, Dur: -5, TID: 1})
	if err := neg.Validate(); err == nil {
		t.Fatal("negative duration must be rejected")
	}
}

func TestSortEnclosingFirst(t *testing.T) {
	tr := New(0)
	tr.Add(Event{Name: "inner", Cat: CatCUDARuntime, Ts: 100, Dur: 10, TID: 1})
	tr.Add(Event{Name: "outer", Cat: CatCPUOp, Ts: 100, Dur: 100, TID: 1})
	tr.Sort()
	if tr.Events[0].Name != "outer" {
		t.Fatal("enclosing span must sort first at equal Ts")
	}
}

func TestMulti(t *testing.T) {
	m := NewMulti(4)
	if m.NumRanks() != 4 {
		t.Fatal("NumRanks")
	}
	m.Ranks[1].Add(Event{Name: "a", Cat: CatCPUOp, Ts: 0, Dur: 100, TID: 1})
	m.Ranks[2].Add(Event{Name: "b", Cat: CatCPUOp, Ts: 0, Dur: 300, TID: 1})
	if m.Events() != 2 {
		t.Fatalf("Events = %d", m.Events())
	}
	if m.Duration() != 300 {
		t.Fatalf("Duration = %d", m.Duration())
	}
}

func TestPropertySortStable(t *testing.T) {
	// Sorting is idempotent and preserves the event multiset size.
	f := func(ts []int64) bool {
		tr := New(0)
		for i, v := range ts {
			tr.Add(Event{Name: "e", Cat: CatCPUOp, Ts: v % 10000, Dur: int64(i % 50), TID: 1})
		}
		tr.Sort()
		n := len(tr.Events)
		for i := 1; i < n; i++ {
			if tr.Events[i-1].Ts > tr.Events[i].Ts {
				return false
			}
		}
		tr.Sort()
		return len(tr.Events) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

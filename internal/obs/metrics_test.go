package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers one registry from many goroutines — metric
// creation, collector registration, hot-path updates, and snapshots
// interleaved — and checks the totals. Run under -race by `make race`.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("lumos_test_ops_total", "ops", "worker", fmt.Sprint(w%2))
			r.Collect(func() []Sample {
				return []Sample{{Name: "lumos_test_depth", Labels: RenderLabels("worker", fmt.Sprint(w)), Kind: KindGauge, Value: 1}}
			})
			h := r.Histogram("lumos_test_latency_seconds", "lat", DefBuckets)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(float64(i%100) / 1000)
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	snap := r.Snapshot()
	var total, depth float64
	for _, sm := range snap.Samples {
		switch sm.Name {
		case "lumos_test_ops_total":
			total += sm.Value
		case "lumos_test_depth":
			depth += sm.Value
		}
	}
	if total != workers*perWorker {
		t.Fatalf("counter total = %v, want %d", total, workers*perWorker)
	}
	if depth != workers {
		t.Fatalf("collected %v depth samples, want %d", depth, workers)
	}
	for _, sm := range snap.Samples {
		if sm.Name == "lumos_test_latency_seconds" {
			if sm.Count != workers*perWorker {
				t.Fatalf("histogram count = %d, want %d", sm.Count, workers*perWorker)
			}
			var bucketSum int64
			for _, c := range sm.Counts {
				bucketSum += c
			}
			if bucketSum != sm.Count {
				t.Fatalf("bucket sum %d != count %d", bucketSum, sm.Count)
			}
		}
	}
}

// TestHistogramBuckets pins the bucket assignment rule: values land in the
// first bucket whose upper bound is >= the value; larger values overflow to
// +Inf.
func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 10, 11, 100} {
		h.Observe(v)
	}
	want := []int64{2, 1, 1, 2} // <=1: {0.5,1}; <=5: {3}; <=10: {10}; +Inf: {11,100}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-125.5) > 1e-9 {
		t.Errorf("sum = %v, want 125.5", h.Sum())
	}
}

// TestWritePrometheusGolden pins the exposition format byte-for-byte so an
// accidental format drift (header order, float rendering, histogram
// expansion) fails loudly.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("lumos_requests_total", "Requests served.", "endpoint", "/v1/plan").Add(3)
	r.Counter("lumos_requests_total", "Requests served.", "endpoint", "/v1/sweep").Add(5)
	r.Collect(func() []Sample {
		return []Sample{{Name: "lumos_cache_bytes", Kind: KindGauge, Help: "Cache size in bytes.", Value: 1536.5}}
	})
	h := r.Histogram("lumos_latency_seconds", "Request latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP lumos_cache_bytes Cache size in bytes.",
		"# TYPE lumos_cache_bytes gauge",
		"lumos_cache_bytes 1536.5",
		"# HELP lumos_latency_seconds Request latency.",
		"# TYPE lumos_latency_seconds histogram",
		`lumos_latency_seconds_bucket{le="0.01"} 1`,
		`lumos_latency_seconds_bucket{le="0.1"} 2`,
		`lumos_latency_seconds_bucket{le="1"} 2`,
		`lumos_latency_seconds_bucket{le="+Inf"} 3`,
		"lumos_latency_seconds_sum 2.055",
		"lumos_latency_seconds_count 3",
		"# HELP lumos_requests_total Requests served.",
		"# TYPE lumos_requests_total counter",
		`lumos_requests_total{endpoint="/v1/plan"} 3`,
		`lumos_requests_total{endpoint="/v1/sweep"} 5`,
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestParsePrometheus sanity-checks that the exposition output obeys the
// text-format grammar line by line (every non-comment line is
// `series value`, every series referenced by a # TYPE header).
func TestParsePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "a").Add(1)
	r.Histogram("b_seconds", "b", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	families := map[string]string{}
	for _, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			families[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("bad sample line %q", line)
		}
		series := line[:i]
		name := series
		if j := strings.IndexByte(series, '{'); j >= 0 {
			name = series[:j]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := families[name]; !ok {
			if _, ok := families[base]; !ok {
				t.Errorf("series %q has no TYPE header", series)
			}
		}
	}
	if families["a_total"] != "counter" || families["b_seconds"] != "histogram" {
		t.Fatalf("families = %v", families)
	}
}

// TestSnapshotDeterministic: two registries fed the identical sequence of
// events produce byte-identical expositions (no map-order leakage).
func TestSnapshotDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		for i := 0; i < 50; i++ {
			r.Counter("lumos_c_total", "c", "k", fmt.Sprint(i%7)).Add(int64(i))
			r.Histogram("lumos_h_seconds", "h", []float64{0.1, 1}, "k", fmt.Sprint(i%3)).Observe(float64(i) / 25)
		}
		r.Collect(func() []Sample {
			// Gauges in reverse label order: the snapshot sorts them.
			out := []Sample{{Name: "lumos_ext_total", Kind: KindCounter, Value: 42}}
			for k := 4; k >= 0; k-- {
				out = append(out, Sample{Name: "lumos_g", Labels: RenderLabels("k", fmt.Sprint(k)), Kind: KindGauge, Help: "g", Value: float64(45 + k)})
			}
			return out
		})
		return r
	}
	var a, b bytes.Buffer
	if err := build().Snapshot().WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("snapshots differ:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestNilRegistry: a nil registry hands out working metrics and empty
// snapshots so call sites need no nil checks.
func TestNilRegistry(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Histogram("z", "", nil).Observe(1)
	r.Collect(func() []Sample { return nil })
	if got := r.Snapshot(); len(got.Samples) != 0 {
		t.Fatalf("nil registry snapshot = %v", got)
	}
}

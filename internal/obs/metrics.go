// Package obs is lumos's own observability layer: a lock-cheap metrics
// registry (atomic counters, fixed-bucket histograms, and snapshot-time
// collectors that report gauges read from storage owned elsewhere) with a
// deterministic snapshot API and a hand-rolled Prometheus text writer,
// plus lightweight spans exported as Chrome trace-event JSON (trace.go).
//
// The package depends only on the standard library so every other lumos
// package can import it without cycles. The hot-path operations —
// Counter.Add and Histogram.Observe — are atomic ops; the registry mutex is
// only taken on metric creation, collector registration and snapshot.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes the metric families in a Snapshot.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n int64)  { c.v.Add(n) }
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram counts observations into fixed upper-bound buckets. Bounds are
// set at registration and never change, so Observe is a binary search plus
// two atomic ops — no locks on the hot path.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf bucket is implicit
	counts  []atomic.Int64
	sumBits atomic.Uint64 // float64 CAS-add
	count   atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// DefBuckets are the default latency buckets in seconds, following the
// conventional Prometheus spread from 1ms to 10s.
var DefBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Sample is one time series in a Snapshot. Labels is the rendered inner
// Prometheus label string (`k="v",k2="v2"`), empty when unlabelled.
type Sample struct {
	Name   string
	Labels string
	Kind   Kind
	Help   string

	Value float64 // counter / gauge value

	// Histogram only.
	Bounds []float64
	Counts []int64 // len(Bounds)+1; last is the +Inf bucket
	Sum    float64
	Count  int64
}

// Snapshot is a deterministic point-in-time view of a Registry: samples are
// sorted by (Name, Labels) so two snapshots of identical state are identical.
type Snapshot struct {
	Samples []Sample
}

// Registry holds named metrics and snapshot-time collectors. The zero value
// is not usable; use NewRegistry. A nil *Registry is safe: all lookup
// methods return usable (but unregistered) metrics so callers need no nil
// checks on hot paths.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	hists      map[string]*Histogram
	help       map[string]string    // metric name -> help
	bounds     map[string][]float64 // histogram name -> bounds
	collectors []func() []Sample
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		help:     map[string]string{},
		bounds:   map[string][]float64{},
	}
}

// RenderLabels renders key/value pairs as a deterministic inner Prometheus
// label string: keys sorted, values escaped. Pairs must be k1, v1, k2, v2...
func RenderLabels(pairs ...string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: RenderLabels requires key/value pairs")
	}
	type kv struct{ k, v string }
	kvs := make([]kv, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		kvs = append(kvs, kv{pairs[i], pairs[i+1]})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	var b strings.Builder
	for i, p := range kvs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// Counter returns the counter for name plus label pairs, creating it on
// first use. Repeated calls with the same name and labels return the same
// counter.
func (r *Registry) Counter(name, help string, labelPairs ...string) *Counter {
	if r == nil {
		return &Counter{}
	}
	key := seriesKey(name, RenderLabels(labelPairs...))
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[key]; ok {
		return c
	}
	c := &Counter{}
	r.counters[key] = c
	r.setHelpLocked(name, help)
	return c
}

// Histogram returns the histogram for name plus label pairs, creating it with
// the given bucket upper bounds on first use. Later calls ignore bounds.
func (r *Registry) Histogram(name, help string, buckets []float64, labelPairs ...string) *Histogram {
	if r == nil {
		return newHistogram(buckets)
	}
	key := seriesKey(name, RenderLabels(labelPairs...))
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[key]; ok {
		return h
	}
	if prev, ok := r.bounds[name]; ok {
		buckets = prev // all series of one family share bounds
	}
	h := newHistogram(buckets)
	r.hists[key] = h
	r.bounds[name] = h.bounds
	r.setHelpLocked(name, help)
	return h
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	b := make([]float64, len(buckets))
	copy(b, buckets)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

func (r *Registry) setHelpLocked(name, help string) {
	if help != "" && r.help[name] == "" {
		r.help[name] = help
	}
}

// Collect registers a snapshot-time collector: a function returning samples
// pulled from storage owned elsewhere (existing atomic counters, cache
// stats). Collectors let /metrics and /v1/stats read the exact same storage
// so the two surfaces can never disagree.
func (r *Registry) Collect(fn func() []Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

func splitSeriesKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], strings.TrimSuffix(key[i+1:], "}")
	}
	return key, ""
}

// Snapshot returns a deterministic view of every registered metric and
// collector output, sorted by (Name, Labels).
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	samples := make([]Sample, 0, len(r.counters)+2*len(r.hists))
	for key, c := range r.counters {
		name, labels := splitSeriesKey(key)
		samples = append(samples, Sample{Name: name, Labels: labels, Kind: KindCounter, Help: r.help[name], Value: float64(c.Value())})
	}
	for key, h := range r.hists {
		name, labels := splitSeriesKey(key)
		counts := make([]int64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		samples = append(samples, Sample{
			Name: name, Labels: labels, Kind: KindHistogram, Help: r.help[name],
			Bounds: h.bounds, Counts: counts, Sum: h.Sum(), Count: h.Count(),
		})
	}
	collectors := make([]func() []Sample, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	for _, fn := range collectors {
		samples = append(samples, fn()...)
	}
	sort.Slice(samples, func(i, j int) bool {
		if samples[i].Name != samples[j].Name {
			return samples[i].Name < samples[j].Name
		}
		return samples[i].Labels < samples[j].Labels
	})
	return Snapshot{Samples: samples}
}

// Value returns the value of the counter or gauge sample with the given name
// and rendered labels, or ok=false when absent.
func (s Snapshot) Value(name, labels string) (float64, bool) {
	for _, sm := range s.Samples {
		if sm.Name == name && sm.Labels == labels {
			return sm.Value, true
		}
	}
	return 0, false
}

// formatFloat renders a metric value the way Prometheus clients do: integers
// without a decimal point, everything else in shortest-round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): # HELP / # TYPE headers once per family, histogram
// series expanded into _bucket{le=...}, _sum and _count.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	lastFamily := ""
	for _, sm := range s.Samples {
		if sm.Name != lastFamily {
			lastFamily = sm.Name
			if sm.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", sm.Name, sm.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", sm.Name, sm.Kind); err != nil {
				return err
			}
		}
		switch sm.Kind {
		case KindHistogram:
			cum := int64(0)
			for i, b := range sm.Bounds {
				cum += sm.Counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", sm.Name, joinLabels(sm.Labels, fmt.Sprintf(`le="%s"`, formatFloat(b))), cum); err != nil {
					return err
				}
			}
			cum += sm.Counts[len(sm.Bounds)]
			if _, err := fmt.Fprintf(w, "%s_bucket{%s} %d\n", sm.Name, joinLabels(sm.Labels, `le="+Inf"`), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", seriesKey(sm.Name+"_sum", sm.Labels), formatFloat(sm.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", seriesKey(sm.Name+"_count", sm.Labels), sm.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s %s\n", seriesKey(sm.Name, sm.Labels), formatFloat(sm.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func joinLabels(labels, extra string) string {
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

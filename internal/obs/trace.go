package obs

import (
	"context"
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Tracer records spans and instant events and exports them as Chrome
// trace-event JSON (the "traceEvents" array format), loadable directly in
// Perfetto (ui.perfetto.dev) — the same format family lumos already consumes
// as input.
//
// A nil *Tracer is the disabled state: every method on a nil Tracer or nil
// Span is a no-op costing one pointer comparison and zero allocations, so
// instrumented hot paths keep their allocation budget when tracing is off.
//
// Concurrency: event recording takes a mutex, so spans may be started and
// ended from multiple goroutines. Each top-level span claims the smallest
// free track (Perfetto "tid") and frees it on End; child spans share their
// parent's track, so Perfetto nests them by time containment.
type Tracer struct {
	mu     sync.Mutex
	t0     time.Time
	id     string
	events []TraceEvent
	free   []int // released track ids, ascending
	next   int   // next never-used track id
}

// TraceEvent is one Chrome trace-event object. Ph "X" is a complete span
// (Ts..Ts+Dur), "i" an instant event.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds since trace start
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope: "t" (thread)
	Args map[string]any `json:"args,omitempty"`
}

// NewTracer returns an enabled tracer. Keep the default nil to disable
// tracing with zero overhead.
func NewTracer() *Tracer {
	return &Tracer{t0: time.Now()}
}

// SetID attaches an identifier to the tracer — lumosd assigns one per
// request so traces are individually retrievable.
func (t *Tracer) SetID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// ID returns the identifier set with SetID, or "" (also on a nil tracer).
func (t *Tracer) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Span is one timed region. Obtained from Tracer.Start or Span.Child; ended
// exactly once with End. All methods are safe on a nil Span.
type Span struct {
	t     *Tracer
	cat   string
	name  string
	tid   int
	root  bool
	start time.Time

	mu   sync.Mutex
	args map[string]any
}

func (t *Tracer) micros(at time.Time) float64 {
	return float64(at.Sub(t.t0)) / float64(time.Microsecond)
}

// Start opens a top-level span on its own track. Returns nil (a valid no-op
// span) when the tracer is nil.
func (t *Tracer) Start(cat, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	var tid int
	if len(t.free) > 0 {
		tid = t.free[0]
		t.free = t.free[1:]
	} else {
		tid = t.next
		t.next++
	}
	t.mu.Unlock()
	return &Span{t: t, cat: cat, name: name, tid: tid, root: true, start: time.Now()}
}

// Child opens a sub-span on the parent's track; Perfetto nests it under the
// parent by time containment.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return &Span{t: s.t, cat: s.cat, name: name, tid: s.tid, start: time.Now()}
}

// Annotate attaches a key/value argument shown in the span's detail pane.
func (s *Span) Annotate(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = value
	s.mu.Unlock()
}

// End closes the span, emitting a complete ("X") event. Top-level spans
// release their track for reuse.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	t := s.t
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		Ts: t.micros(s.start), Dur: float64(now.Sub(s.start)) / float64(time.Microsecond),
		Pid: 1, Tid: s.tid, Args: s.args,
	})
	if s.root {
		i := sort.SearchInts(t.free, s.tid)
		t.free = append(t.free, 0)
		copy(t.free[i+1:], t.free[i:])
		t.free[i] = s.tid
	}
	t.mu.Unlock()
}

// Instant records a zero-duration event on the span's track — used for
// per-round search events (pop/prune/simulate) inside a long span.
func (s *Span) Instant(name string, args map[string]any) {
	if s == nil {
		return
	}
	s.t.instant(s.cat, name, s.tid, args)
}

// Instant records a zero-duration event on the tracer's track 0.
func (t *Tracer) Instant(cat, name string, args map[string]any) {
	if t == nil {
		return
	}
	t.instant(cat, name, 0, args)
}

func (t *Tracer) instant(cat, name string, tid int, args map[string]any) {
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Name: name, Cat: cat, Ph: "i", Ts: t.micros(time.Now()),
		Pid: 1, Tid: tid, S: "t", Args: args,
	})
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in emission order.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, len(t.events))
	copy(out, t.events)
	return out
}

// traceFile is the JSON object Perfetto and chrome://tracing load.
type traceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// Export writes the trace as Chrome trace-event JSON.
func (t *Tracer) Export(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	enc := json.NewEncoder(w)
	return enc.Encode(traceFile{TraceEvents: t.Events(), DisplayTimeUnit: "ms"})
}

// ParseTrace decodes Chrome trace-event JSON produced by Export — used by
// tests and the obs-smoke gate to verify round trips.
func ParseTrace(data []byte) ([]TraceEvent, error) {
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	return f.TraceEvents, nil
}

// ctxKey carries a *Span through context so pipeline stages can attach
// children without widening every interface.
type ctxKey struct{}

// ContextWithSpan returns ctx carrying sp. When sp is nil, ctx is returned
// unchanged so disabled tracing allocates nothing.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFrom returns the span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// tracerKey carries a request-scoped *Tracer through context.
type tracerKey struct{}

// ContextWithTracer returns ctx carrying t: the one way a tracer reaches
// instrumented code, so each lumosd request gets an isolated trace. When t
// is nil, ctx is returned unchanged so the disabled path allocates
// nothing.
func ContextWithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

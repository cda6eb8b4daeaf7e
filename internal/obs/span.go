package obs

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Attr is one span annotation. Values are strings on purpose: the
// flight recorder serves JSON to humans, and string-only attrs keep
// the span type flat and poolable.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed operation within a trace. Spans are created only
// on sampled requests, come from a pool, and are recycled when their
// trace is exported — callers must not retain a *Span past the
// request. Every method is nil-safe: the unsampled path hands callers
// a nil span and all annotation calls vanish without allocating.
type Span struct {
	tr     *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	end    time.Time // zero while open
	attrs  []Attr    // backing array reused across pool cycles
}

var spanPool = sync.Pool{New: func() interface{} { return new(Span) }}

// End closes the span. Calling End twice keeps the first end time.
func (s *Span) End() {
	if s == nil || !s.end.IsZero() {
		return
	}
	s.end = time.Now()
}

// SetAttr annotates the span. Only the goroutine that started the
// span may annotate it.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, value int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(value, 10)})
}

// SetBool annotates the span with a boolean value.
func (s *Span) SetBool(key string, value bool) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatBool(value)})
}

// ID returns the span id (zero for a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// maxTraceSpans bounds one trace's span count (local + merged remote)
// so a pathological request cannot balloon the recorder; overflow is
// counted, not silently dropped.
const maxTraceSpans = 512

// Trace collects one sampled request's spans. Spans may be started
// from many goroutines (batch workers, mutation fan-out), so the span
// list is mutex-guarded; individual span fields are only touched by
// the starting goroutine, with the request's final export ordered
// after every worker by the caller's own joins.
type Trace struct {
	tracer *Tracer
	id     TraceID
	// wire: the request arrived with a sampled traceparent, i.e. this
	// process is a participant in someone else's trace — its handlers
	// attach their span data to the response so the caller can stitch
	// the full cross-process picture.
	wire  bool
	start time.Time

	mu      sync.Mutex
	done    bool
	spans   []*Span
	remote  []SpanData
	dropped int
}

// newSpan starts a pooled span under the trace (nil when the trace is
// finished or at its span cap).
func (tr *Trace) newSpan(name string, parent SpanID) *Span {
	tr.mu.Lock()
	if tr.done || len(tr.spans)+len(tr.remote) >= maxTraceSpans {
		tr.dropped++
		tr.mu.Unlock()
		if tr.tracer != nil {
			tr.tracer.droppedSpans.Add(1)
		}
		return nil
	}
	sp := spanPool.Get().(*Span)
	sp.tr = tr
	sp.id = NewSpanID()
	sp.parent = parent
	sp.name = name
	sp.start = time.Now()
	sp.end = time.Time{}
	sp.attrs = sp.attrs[:0]
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	return sp
}

// exportLocked renders the trace's spans (local first, then merged
// remote ones) into wire/recorder form. Open spans — typically the
// root, exported before the response is written — get their duration
// as of now. Caller holds tr.mu.
func (tr *Trace) exportLocked(node string, now time.Time) []SpanData {
	out := make([]SpanData, 0, len(tr.spans)+len(tr.remote))
	for _, sp := range tr.spans {
		end := sp.end
		if end.IsZero() {
			end = now
		}
		var attrs []Attr
		if len(sp.attrs) > 0 {
			attrs = append([]Attr(nil), sp.attrs...)
		}
		out = append(out, SpanData{
			SpanID:     sp.id.String(),
			ParentID:   parentString(sp.parent),
			Name:       sp.name,
			Node:       node,
			Start:      sp.start,
			DurationMS: durationMS(end.Sub(sp.start)),
			Attrs:      attrs,
		})
	}
	out = append(out, tr.remote...)
	return out
}

func parentString(p SpanID) string {
	if p.IsZero() {
		return ""
	}
	return p.String()
}

func durationMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// finish exports the trace one final time and recycles its spans.
func (tr *Trace) finish(node string, now time.Time) (spans []SpanData, dropped int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return nil, tr.dropped
	}
	spans = tr.exportLocked(node, now)
	dropped = tr.dropped
	tr.done = true
	for i, sp := range tr.spans {
		sp.tr = nil
		spanPool.Put(sp)
		tr.spans[i] = nil
	}
	tr.spans = nil
	tr.remote = nil
	return spans, dropped
}

// Context plumbing. Two typed keys ride the request context:
// spanKey holds the current span of a SAMPLED request (the whole
// tracing fast path keys off its absence), reqKey holds the
// per-request handle the HTTP layer uses for tail capture even when
// the request is not sampled. Both lookups are allocation-free.
type (
	spanKey struct{}
	reqKey  struct{}
)

// CurrentSpan returns the context's active span, nil when the request
// is untraced or unsampled.
func CurrentSpan(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// FromContext returns the context's active trace (nil when unsampled
// or untraced).
func FromContext(ctx context.Context) *Trace {
	if sp := CurrentSpan(ctx); sp != nil {
		return sp.tr
	}
	return nil
}

// StartSpan starts a child of the context's current span and returns
// a derived context carrying it. Without an active sampled trace it
// returns ctx unchanged and a nil span — zero allocations — so
// engine-level callers thread tracing unconditionally.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	if parent == nil || parent.tr == nil {
		return ctx, nil
	}
	sp := parent.tr.newSpan(name, parent.id)
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}

// Traceparent renders the outgoing propagation header for the
// context's current position in its trace ("" when unsampled — an
// unsampled request deliberately propagates nothing, keeping the
// downstream wire byte-identical to an untraced deployment).
func Traceparent(ctx context.Context) string {
	sp := CurrentSpan(ctx)
	if sp == nil || sp.tr == nil {
		return ""
	}
	return FormatTraceparent(sp.tr.id, sp.id, true)
}

// Inject adds the traceparent header to an outgoing request's headers
// when the context carries a sampled trace.
func Inject(ctx context.Context, h http.Header) {
	if tp := Traceparent(ctx); tp != "" {
		h.Set(TraceparentHeader, tp)
	}
}

// MergeRemote folds span data returned by a downstream process (a
// replica answering a traced request) into the context's trace. Safe
// to call from hedged or raced attempts: merges into a finished trace
// are dropped, and the span cap applies. Callers that outlive the
// request (detached replication pushes) must capture the *Trace with
// FromContext while the request is live and use Trace.Merge instead —
// the context's span is recycled when the trace finishes.
func MergeRemote(ctx context.Context, spans []SpanData) {
	FromContext(ctx).Merge(spans)
}

// Merge folds downstream span data into the trace. Nil-safe, and safe
// to call after the trace finished (the merge is dropped) — unlike a
// context lookup, a retained *Trace stays valid past the request.
func (tr *Trace) Merge(spans []SpanData) {
	if tr == nil || len(spans) == 0 {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return
	}
	for _, sd := range spans {
		if len(tr.spans)+len(tr.remote) >= maxTraceSpans {
			tr.dropped++
			if tr.tracer != nil {
				tr.tracer.droppedSpans.Add(1)
			}
			continue
		}
		tr.remote = append(tr.remote, sd)
	}
}

// WireSpans exports the trace's span data for attaching to a response
// body — but only when the request arrived as part of a distributed
// trace (a sampled traceparent header). Locally-initiated requests
// return nil, keeping client-facing response bytes identical whether
// or not head sampling picked the request.
func WireSpans(ctx context.Context) []SpanData {
	tr := FromContext(ctx)
	if tr == nil || !tr.wire {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.done {
		return nil
	}
	return tr.exportLocked(tr.nodeLocked(), time.Now())
}

// nodeLocked names the process for exported spans.
func (tr *Trace) nodeLocked() string {
	if tr.tracer != nil {
		return tr.tracer.cfg.Node
	}
	return ""
}

// RequestFromContext returns the per-request tracing handle installed
// by Tracer.StartRequest (nil when the server has no tracer).
func RequestFromContext(ctx context.Context) *Request {
	rq, _ := ctx.Value(reqKey{}).(*Request)
	return rq
}

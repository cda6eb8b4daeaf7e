package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/search"
)

// Config tunes a Tracer. The zero value is usable: 1-in-16 head
// sampling, 250ms slow threshold, 256 recorded traces, 64 slow
// queries.
type Config struct {
	// Node names this process in spans, logs and trace records (e.g.
	// "fe1" or "replica@:8081").
	Node string
	// SampleEvery head-samples 1 in N locally-initiated requests with
	// full span collection (1 = every request, 0 = default 16, < 0
	// disables head sampling; tail capture stays on regardless).
	SampleEvery int
	// SlowThreshold tail-captures any request at least this slow and
	// feeds the slow-query log (0 = default 250ms, < 0 disables).
	SlowThreshold time.Duration
	// RecorderCapacity is the flight recorder ring size in traces
	// (0 = default 256).
	RecorderCapacity int
	// SlowLogCapacity is the slow-query ring size (0 = default 64).
	SlowLogCapacity int
}

// Defaults substituted for zero Config fields.
const (
	DefaultSampleEvery      = 16
	DefaultSlowThreshold    = 250 * time.Millisecond
	DefaultRecorderCapacity = 256
	DefaultSlowLogCapacity  = 64
)

func (c Config) withDefaults() Config {
	if c.SampleEvery == 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = DefaultSlowThreshold
	}
	if c.RecorderCapacity <= 0 {
		c.RecorderCapacity = DefaultRecorderCapacity
	}
	if c.SlowLogCapacity <= 0 {
		c.SlowLogCapacity = DefaultSlowLogCapacity
	}
	return c
}

// Tracer owns sampling policy, the flight recorder and the slow-query
// log for one process. Safe for concurrent use.
type Tracer struct {
	cfg Config
	seq atomic.Uint64

	rec  recorder
	slow slowLog

	started      atomic.Int64
	sampledCount atomic.Int64
	tailCaptured atomic.Int64
	recorded     atomic.Int64
	droppedSpans atomic.Int64
	slowLogged   atomic.Int64
}

// NewTracer builds a tracer (zero Config fields take defaults).
func NewTracer(cfg Config) *Tracer {
	cfg = cfg.withDefaults()
	t := &Tracer{cfg: cfg}
	t.rec.buf = make([]TraceRecord, cfg.RecorderCapacity)
	t.slow.buf = make([]SlowQuery, cfg.SlowLogCapacity)
	return t
}

// Node returns the tracer's process identity.
func (t *Tracer) Node() string {
	if t == nil {
		return ""
	}
	return t.cfg.Node
}

// SlowThreshold returns the effective slow-request threshold (0 when
// disabled).
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil || t.cfg.SlowThreshold < 0 {
		return 0
	}
	return t.cfg.SlowThreshold
}

// Request is one HTTP request's tracing handle: the sampled trace (if
// any) plus what tail capture needs either way. The HTTP layer creates
// one per request via StartRequest and completes it with Finish.
type Request struct {
	t      *Tracer
	id     TraceID
	tr     *Trace // nil when unsampled
	root   *Span
	start  time.Time
	method string
	name   string
}

// Sampled reports whether the request is head-sampled (full span
// collection active).
func (rq *Request) Sampled() bool { return rq != nil && rq.tr != nil }

// TraceID returns the request's trace id string (set even when
// unsampled, so log lines always carry one).
func (rq *Request) TraceID() string {
	if rq == nil {
		return ""
	}
	return rq.id.String()
}

// StartRequest begins tracing one inbound request. A well-formed
// sampled traceparent header adopts the caller's trace (and marks the
// trace for wire export — see WireSpans); otherwise a fresh trace id
// is minted and head sampling decides whether spans are collected.
// The returned context carries the root span when sampled and the
// request handle always; the returned Request is nil only when the
// tracer is nil.
func (t *Tracer) StartRequest(ctx context.Context, traceparent, method, path string) (context.Context, *Request) {
	if t == nil {
		return ctx, nil
	}
	now := time.Now()
	rq := &Request{t: t, start: now, method: method, name: path}
	var parent SpanID
	var sampled bool
	if tid, pspan, psampled, ok := ParseTraceparent(traceparent); ok {
		rq.id = tid
		parent = pspan
		sampled = psampled
		if sampled {
			rq.tr = &Trace{tracer: t, id: tid, wire: true, start: now}
		}
	} else {
		rq.id = NewTraceID()
		if n := t.cfg.SampleEvery; n > 0 && (t.seq.Add(1)-1)%uint64(n) == 0 {
			sampled = true
			rq.tr = &Trace{tracer: t, id: rq.id, start: now}
		}
	}
	t.started.Add(1)
	if rq.tr != nil {
		t.sampledCount.Add(1)
		rq.root = rq.tr.newSpan(path, parent)
		rq.root.SetAttr("method", method)
		ctx = context.WithValue(ctx, spanKey{}, rq.root)
	}
	return context.WithValue(ctx, reqKey{}, rq), rq
}

// FinishInfo summarizes one finished request for the access log.
type FinishInfo struct {
	TraceID    string
	Status     int
	DurationMS float64
	Sampled    bool
	Tail       bool // tail-captured: slow or error/shed status
}

// Finish completes the request: a sampled trace is exported into the
// flight recorder (and its spans recycled); an unsampled request that
// tripped tail capture — slow, or an error/shed/cancel status — is
// recorded as a synthesized single-span trace.
func (rq *Request) Finish(status int) FinishInfo {
	if rq == nil {
		return FinishInfo{}
	}
	t := rq.t
	now := time.Now()
	dur := now.Sub(rq.start)
	slow := t.cfg.SlowThreshold > 0 && dur >= t.cfg.SlowThreshold
	tail := slow || status >= 500 ||
		status == http.StatusTooManyRequests || status == 499
	info := FinishInfo{
		TraceID:    rq.id.String(),
		Status:     status,
		DurationMS: durationMS(dur),
		Sampled:    rq.tr != nil,
		Tail:       tail,
	}
	rec := TraceRecord{
		ID:         info.TraceID,
		Name:       rq.name,
		Node:       t.cfg.Node,
		Start:      rq.start,
		DurationMS: info.DurationMS,
		Status:     status,
		Sampled:    info.Sampled,
		Slow:       slow,
	}
	switch {
	case rq.tr != nil:
		rq.root.SetInt("status", int64(status))
		rq.root.End()
		rec.Spans, rec.DroppedSpans = rq.tr.finish(t.cfg.Node, now)
	case tail:
		// Synthesized single span: tail capture still answers "when,
		// how long, what status" for requests head sampling skipped.
		t.tailCaptured.Add(1)
		rec.Spans = []SpanData{{
			SpanID:     NewSpanID().String(),
			Name:       rq.name,
			Node:       t.cfg.Node,
			Start:      rq.start,
			DurationMS: info.DurationMS,
			Attrs: []Attr{
				{Key: "method", Value: rq.method},
				{Key: "tail_capture", Value: "true"},
			},
		}}
	default:
		return info
	}
	t.recorded.Add(1)
	t.rec.add(rec)
	return info
}

// RecordSlow appends one query to the slow-query log.
func (t *Tracer) RecordSlow(q SlowQuery) {
	if t == nil {
		return
	}
	t.slowLogged.Add(1)
	t.slow.add(q)
}

// Stats is the tracer's self-accounting, surfaced under /v1/stats and
// /metrics.
type Stats struct {
	Started      int64
	SampledCount int64
	TailCaptured int64
	Recorded     int64
	DroppedSpans int64
	SlowLogged   int64
	SampleEvery  int
	RecorderCap  int
}

// Stats snapshots the tracer's counters.
func (t *Tracer) Stats() Stats {
	if t == nil {
		return Stats{}
	}
	return Stats{
		Started:      t.started.Load(),
		SampledCount: t.sampledCount.Load(),
		TailCaptured: t.tailCaptured.Load(),
		Recorded:     t.recorded.Load(),
		DroppedSpans: t.droppedSpans.Load(),
		SlowLogged:   t.slowLogged.Load(),
		SampleEvery:  t.cfg.SampleEvery,
		RecorderCap:  t.cfg.RecorderCapacity,
	}
}

// SpanData is one exported span: what the flight recorder stores,
// /debug/traces serves, and traced responses attach for cross-process
// stitching.
type SpanData struct {
	SpanID     string    `json:"span_id"`
	ParentID   string    `json:"parent_id,omitempty"`
	Name       string    `json:"name"`
	Node       string    `json:"node,omitempty"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Attrs      []Attr    `json:"attrs,omitempty"`
}

// TraceRecord is one completed trace in the flight recorder.
type TraceRecord struct {
	ID           string     `json:"trace_id"`
	Name         string     `json:"name"`
	Node         string     `json:"node,omitempty"`
	Start        time.Time  `json:"start"`
	DurationMS   float64    `json:"duration_ms"`
	Status       int        `json:"status"`
	Sampled      bool       `json:"sampled"`
	Slow         bool       `json:"slow,omitempty"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// TraceSummary is one /debug/traces listing entry.
type TraceSummary struct {
	ID         string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Status     int       `json:"status"`
	Sampled    bool      `json:"sampled"`
	Slow       bool      `json:"slow,omitempty"`
	Spans      int       `json:"spans"`
}

// recorder is the flight recorder ring: fixed capacity, newest
// overwrites oldest.
type recorder struct {
	mu   sync.Mutex
	buf  []TraceRecord
	next int
	n    int
}

func (r *recorder) add(rec TraceRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// list returns summaries newest-first.
func (r *recorder) list() []TraceSummary {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceSummary, 0, r.n)
	for i := 0; i < r.n; i++ {
		rec := &r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)]
		out = append(out, TraceSummary{
			ID: rec.ID, Name: rec.Name, Start: rec.Start,
			DurationMS: rec.DurationMS, Status: rec.Status,
			Sampled: rec.Sampled, Slow: rec.Slow,
			Spans: len(rec.Spans),
		})
	}
	return out
}

// get returns the newest record with the given trace id.
func (r *recorder) get(id string) (TraceRecord, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < r.n; i++ {
		rec := r.buf[(r.next-1-i+2*len(r.buf))%len(r.buf)]
		if rec.ID == id {
			return rec, true
		}
	}
	return TraceRecord{}, false
}

// SlowQuery is one slow-query log entry: the query's shape, its
// duration, and the engine's Explain payload when one was available
// (the client asked for it, or sampling forced it).
type SlowQuery struct {
	Time       time.Time       `json:"time"`
	TraceID    string          `json:"trace_id,omitempty"`
	Seeker     string          `json:"seeker"`
	Tags       []string        `json:"tags"`
	K          int             `json:"k"`
	Mode       string          `json:"mode"`
	DurationMS float64         `json:"duration_ms"`
	Explain    *search.Explain `json:"explain,omitempty"`
}

type slowLog struct {
	mu   sync.Mutex
	buf  []SlowQuery
	next int
	n    int
}

func (l *slowLog) add(q SlowQuery) {
	l.mu.Lock()
	l.buf[l.next] = q
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

func (l *slowLog) list() []SlowQuery {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQuery, 0, l.n)
	for i := 0; i < l.n; i++ {
		out = append(out, l.buf[(l.next-1-i+2*len(l.buf))%len(l.buf)])
	}
	return out
}

// SlowQueries returns the slow-query log, newest first.
func (t *Tracer) SlowQueries() []SlowQuery {
	if t == nil {
		return nil
	}
	return t.slow.list()
}

// Traces returns flight-recorder summaries, newest first.
func (t *Tracer) Traces() []TraceSummary {
	if t == nil {
		return nil
	}
	return t.rec.list()
}

// TraceByID returns the newest recorded trace with the given id.
func (t *Tracer) TraceByID(id string) (TraceRecord, bool) {
	if t == nil {
		return TraceRecord{}, false
	}
	return t.rec.get(id)
}

// TracesHandler serves GET /debug/traces (the listing) and
// GET /debug/traces/{id} (one full trace). Mount it at /debug/traces
// and /debug/traces/ on the same mux.
func (t *Tracer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		id := strings.Trim(strings.TrimPrefix(r.URL.Path, "/debug/traces"), "/")
		w.Header().Set("Content-Type", "application/json")
		if id == "" {
			json.NewEncoder(w).Encode(map[string]interface{}{"traces": t.rec.list()})
			return
		}
		rec, ok := t.rec.get(id)
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": "no recorded trace " + id})
			return
		}
		json.NewEncoder(w).Encode(rec)
	})
}

// SlowLogHandler serves GET /debug/slowlog.
func (t *Tracer) SlowLogHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"threshold_ms": durationMS(t.SlowThreshold()),
			"queries":      t.slow.list(),
		})
	})
}

package obs

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	for _, sampled := range []bool{true, false} {
		h := FormatTraceparent(tid, sid, sampled)
		if len(h) != 55 {
			t.Fatalf("FormatTraceparent length = %d, want 55 (%q)", len(h), h)
		}
		gt, gs, gsampled, ok := ParseTraceparent(h)
		if !ok || gt != tid || gs != sid || gsampled != sampled {
			t.Fatalf("round trip of %q = (%v %v %v %v), want (%v %v %v true)",
				h, gt, gs, gsampled, ok, tid, sid, sampled)
		}
	}
}

func TestParseTraceparentMalformed(t *testing.T) {
	valid := FormatTraceparent(NewTraceID(), NewSpanID(), true)
	cases := map[string]string{
		"empty":         "",
		"truncated":     valid[:54],
		"too long":      valid + "0",
		"version 01":    "01" + valid[2:],
		"bad separator": valid[:35] + "_" + valid[36:],
		"non-hex trace": "00-zz" + valid[5:],
		"non-hex flags": valid[:53] + "zz",
		"zero trace id": "00-00000000000000000000000000000000-" + valid[36:],
	}
	for name, h := range cases {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("%s: ParseTraceparent(%q) ok, want rejection", name, h)
		}
	}
	// An unsampled flag octet is well-formed, just not sampled.
	if _, _, sampled, ok := ParseTraceparent(valid[:53] + "00"); !ok || sampled {
		t.Fatalf("flags 00: ok=%v sampled=%v, want ok and unsampled", ok, sampled)
	}
}

func TestIDsNeverZeroAndDistinct(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		tid, sid := NewTraceID(), NewSpanID()
		if tid.IsZero() || sid.IsZero() {
			t.Fatal("minted a zero id")
		}
		if seen[tid.String()] || seen[sid.String()] {
			t.Fatal("minted a duplicate id")
		}
		seen[tid.String()], seen[sid.String()] = true, true
	}
}

func TestHeadSamplingCadence(t *testing.T) {
	tr := NewTracer(Config{Node: "n1", SampleEvery: 4})
	sampled := 0
	for i := 0; i < 16; i++ {
		ctx, rq := tr.StartRequest(context.Background(), "", http.MethodGet, "/v1/search")
		if rq.TraceID() == "" {
			t.Fatal("every request must carry a trace id, sampled or not")
		}
		if rq.Sampled() {
			sampled++
			if CurrentSpan(ctx) == nil {
				t.Fatal("sampled request has no root span in context")
			}
		} else if CurrentSpan(ctx) != nil {
			t.Fatal("unsampled request has a span in context")
		}
		rq.Finish(http.StatusOK)
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 at 1-in-4, want 4", sampled)
	}
	if s := tr.Stats(); s.Started != 16 || s.SampledCount != 4 || s.Recorded != 4 {
		t.Fatalf("stats = %+v, want Started 16 SampledCount 4 Recorded 4", s)
	}

	off := NewTracer(Config{SampleEvery: -1})
	for i := 0; i < 8; i++ {
		_, rq := off.StartRequest(context.Background(), "", http.MethodGet, "/x")
		if rq.Sampled() {
			t.Fatal("negative SampleEvery must disable head sampling")
		}
		rq.Finish(http.StatusOK)
	}
}

func TestAdoptIncomingTraceparent(t *testing.T) {
	tr := NewTracer(Config{Node: "replica", SampleEvery: -1}) // head sampling off
	tid, psid := NewTraceID(), NewSpanID()

	// Sampled incoming header: adopt the trace, collect spans, export
	// them on the wire for the caller to stitch.
	ctx, rq := tr.StartRequest(context.Background(),
		FormatTraceparent(tid, psid, true), http.MethodPost, "/v2/search")
	if !rq.Sampled() || rq.TraceID() != tid.String() {
		t.Fatalf("sampled traceparent not adopted: sampled=%v id=%s", rq.Sampled(), rq.TraceID())
	}
	_, child := StartSpan(ctx, "social.execute")
	child.End()
	wire := WireSpans(ctx)
	if len(wire) != 2 {
		t.Fatalf("WireSpans returned %d spans, want 2 (root + child)", len(wire))
	}
	if wire[0].ParentID != psid.String() {
		t.Fatalf("adopted root's parent = %q, want caller's span %s", wire[0].ParentID, psid)
	}
	if wire[0].Node != "replica" {
		t.Fatalf("exported span node = %q, want replica", wire[0].Node)
	}
	rq.Finish(http.StatusOK)

	// Unsampled incoming header: keep the trace id for logs, no spans.
	ctx2, rq2 := tr.StartRequest(context.Background(),
		FormatTraceparent(tid, psid, false), http.MethodGet, "/v1/search")
	if rq2.Sampled() || rq2.TraceID() != tid.String() {
		t.Fatalf("flags-00 traceparent: sampled=%v id=%s, want unsampled with caller's id",
			rq2.Sampled(), rq2.TraceID())
	}
	if WireSpans(ctx2) != nil {
		t.Fatal("unsampled request exported wire spans")
	}
	rq2.Finish(http.StatusOK)
}

// TestWireSpansGatedOnIncoming: a locally-initiated sampled request
// must NOT attach spans to its response — clients see byte-identical
// bodies whether or not head sampling picked their request.
func TestWireSpansGatedOnIncoming(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	ctx, rq := tr.StartRequest(context.Background(), "", http.MethodGet, "/v1/search")
	if !rq.Sampled() {
		t.Fatal("SampleEvery 1 must sample every request")
	}
	if WireSpans(ctx) != nil {
		t.Fatal("locally-initiated trace exported wire spans")
	}
	rq.Finish(http.StatusOK)
}

// TestSpansHeaderRoundTrip: the spans a wire-adopted trace puts in the
// response header reach the caller's trace with every attribute byte
// intact, a value that is not the header's encoding merges nothing,
// and a locally-initiated trace sets no header.
func TestSpansHeaderRoundTrip(t *testing.T) {
	replica := NewTracer(Config{Node: "r1", SampleEvery: -1})
	front := NewTracer(Config{Node: "fe", SampleEvery: 1})
	fctx, frq := front.StartRequest(context.Background(), "", http.MethodPost, "/v2/search")
	rctx, rrq := replica.StartRequest(context.Background(), Traceparent(fctx), http.MethodPost, "/v2/search")
	name := "ál\"i\x01ce\t\x7f😀 <&>\u2028"
	_, sp := StartSpan(rctx, "social.execute")
	sp.SetAttr("seeker", name)
	sp.End()
	h := http.Header{}
	SetSpansHeader(rctx, h)
	rrq.Finish(http.StatusOK)
	for _, bad := range []string{"not base64!", "bnVsbA", "W3siYSI6fV0="} {
		MergeSpansHeader(fctx, http.Header{SpansHeader: {bad}})
	}
	MergeSpansHeader(fctx, h)
	frq.Finish(http.StatusOK)

	rec, ok := front.TraceByID(frq.TraceID())
	if !ok {
		t.Fatal("the front-end's trace was not recorded")
	}
	var got []string
	for _, sd := range rec.Spans {
		for _, a := range sd.Attrs {
			if sd.Node == "r1" && a.Key == "seeker" {
				got = append(got, a.Value)
			}
		}
	}
	if len(got) != 1 || got[0] != name {
		t.Fatalf("merged seeker attributes %q, want one %q", got, name)
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("recorded %d spans, want the front-end's root and the replica's two", len(rec.Spans))
	}

	lctx, lrq := front.StartRequest(context.Background(), "", http.MethodPost, "/v2/search")
	local := http.Header{}
	SetSpansHeader(lctx, local)
	lrq.Finish(http.StatusOK)
	if v := local.Get(SpansHeader); v != "" {
		t.Fatalf("a locally-initiated trace set %s: %q", SpansHeader, v)
	}
}

func TestSpanTreeAndPropagation(t *testing.T) {
	tr := NewTracer(Config{Node: "fe1", SampleEvery: 1})
	ctx, rq := tr.StartRequest(context.Background(), "", http.MethodPost, "/v2/search")
	root := CurrentSpan(ctx)

	tp := Traceparent(ctx)
	gt, gs, sampled, ok := ParseTraceparent(tp)
	if !ok || !sampled || gt.String() != rq.TraceID() || gs != root.ID() {
		t.Fatalf("Traceparent(ctx) = %q, want sampled header for trace %s span %s", tp, rq.TraceID(), root.ID())
	}
	h := http.Header{}
	Inject(ctx, h)
	if h.Get(TraceparentHeader) != tp {
		t.Fatalf("Inject set %q, want %q", h.Get(TraceparentHeader), tp)
	}

	cctx, child := StartSpan(ctx, "fleet.rpc")
	child.SetAttr("replica", "http://r1")
	child.SetInt("attempt", 1)
	child.SetBool("failover", false)
	MergeRemote(cctx, []SpanData{{SpanID: "aaaa", Name: "social.execute", Node: "r1"}})
	child.End()
	rq.Finish(http.StatusOK)

	rec, ok := tr.TraceByID(rq.TraceID())
	if !ok {
		t.Fatal("finished sampled trace not in the flight recorder")
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("recorded %d spans, want 3 (root, child, remote)", len(rec.Spans))
	}
	if rec.Spans[1].ParentID != root.ID().String() {
		t.Fatalf("child parent = %q, want root %s", rec.Spans[1].ParentID, root.ID())
	}
	var attrs = map[string]string{}
	for _, a := range rec.Spans[1].Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["replica"] != "http://r1" || attrs["attempt"] != "1" || attrs["failover"] != "false" {
		t.Fatalf("child attrs = %v", rec.Spans[1].Attrs)
	}
	if rec.Spans[2].Node != "r1" || rec.Spans[2].Name != "social.execute" {
		t.Fatalf("remote span not exported last: %+v", rec.Spans[2])
	}

	// A finished trace must drop late merges (attempts that outlived it).
	MergeRemote(cctx, []SpanData{{SpanID: "bbbb"}})
	if rec2, _ := tr.TraceByID(rq.TraceID()); len(rec2.Spans) != 3 {
		t.Fatal("MergeRemote after finish mutated the recorded trace")
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1, RecorderCapacity: 4})
	var ids []string
	for i := 0; i < 6; i++ {
		_, rq := tr.StartRequest(context.Background(), "", http.MethodGet, "/v1/search")
		ids = append(ids, rq.TraceID())
		rq.Finish(http.StatusOK)
	}
	got := tr.Traces()
	if len(got) != 4 {
		t.Fatalf("recorder holds %d traces, want capacity 4", len(got))
	}
	for i, s := range got { // newest first
		if want := ids[5-i]; s.ID != want {
			t.Fatalf("traces[%d] = %s, want %s (newest-first)", i, s.ID, want)
		}
	}
	if _, ok := tr.TraceByID(ids[0]); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if _, ok := tr.TraceByID(ids[5]); !ok {
		t.Fatal("newest trace not retrievable")
	}
}

func TestTailCaptureUnsampled(t *testing.T) {
	tr := NewTracer(Config{Node: "n", SampleEvery: -1})
	cases := []struct {
		status int
		tail   bool
	}{
		{http.StatusOK, false},
		{http.StatusInternalServerError, true},
		{http.StatusTooManyRequests, true},
		{499, true},
	}
	want := 0
	for _, c := range cases {
		_, rq := tr.StartRequest(context.Background(), "", http.MethodGet, "/v2/search")
		info := rq.Finish(c.status)
		if info.Tail != c.tail {
			t.Fatalf("status %d: Tail = %v, want %v", c.status, info.Tail, c.tail)
		}
		if c.tail {
			want++
			rec, ok := tr.TraceByID(info.TraceID)
			if !ok {
				t.Fatalf("status %d: tail-captured trace not recorded", c.status)
			}
			if len(rec.Spans) != 1 || rec.Sampled {
				t.Fatalf("synthesized record = %+v, want one span, unsampled", rec)
			}
		}
	}
	if got := len(tr.Traces()); got != want {
		t.Fatalf("recorded %d traces, want %d (only tail captures)", got, want)
	}
	if s := tr.Stats(); s.TailCaptured != int64(want) {
		t.Fatalf("TailCaptured = %d, want %d", s.TailCaptured, want)
	}
}

func TestSlowLogRing(t *testing.T) {
	tr := NewTracer(Config{SlowLogCapacity: 2})
	for i, seeker := range []string{"a", "b", "c"} {
		tr.RecordSlow(SlowQuery{Time: time.Now(), Seeker: seeker, DurationMS: float64(i)})
	}
	got := tr.SlowQueries()
	if len(got) != 2 || got[0].Seeker != "c" || got[1].Seeker != "b" {
		t.Fatalf("slow log = %+v, want [c b] (capacity 2, newest first)", got)
	}
}

func TestDebugHandlers(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	_, rq := tr.StartRequest(context.Background(), "", http.MethodGet, "/v1/search")
	rq.Finish(http.StatusOK)

	mux := http.NewServeMux()
	mux.Handle("/debug/traces", tr.TracesHandler())
	mux.Handle("/debug/traces/", tr.TracesHandler())
	mux.Handle("/debug/slowlog", tr.SlowLogHandler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var listing struct {
		Traces []TraceSummary `json:"traces"`
	}
	getJSON(t, ts.URL+"/debug/traces", &listing)
	if len(listing.Traces) != 1 || listing.Traces[0].ID != rq.TraceID() {
		t.Fatalf("listing = %+v, want the one finished trace", listing)
	}
	var rec TraceRecord
	getJSON(t, ts.URL+"/debug/traces/"+rq.TraceID(), &rec)
	if rec.ID != rq.TraceID() || len(rec.Spans) != 1 {
		t.Fatalf("trace fetch = %+v", rec)
	}
	resp, err := http.Get(ts.URL + "/debug/traces/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace id: status %d, want 404", resp.StatusCode)
	}
	var slow struct {
		ThresholdMS float64     `json:"threshold_ms"`
		Queries     []SlowQuery `json:"queries"`
	}
	getJSON(t, ts.URL+"/debug/slowlog", &slow)
	if slow.ThresholdMS != 250 {
		t.Fatalf("slowlog threshold_ms = %v, want default 250", slow.ThresholdMS)
	}
}

func getJSON(t *testing.T, url string, into interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// TestUntracedPathZeroAlloc pins the tentpole's allocation guarantee:
// with no sampled trace on the context, the whole span API — StartSpan,
// annotation, End, Traceparent, WireSpans, MergeRemote — must not
// allocate. This is what keeps the warm cached read path at 0 allocs/op
// with tracing off or the request unsampled.
func TestUntracedPathZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(ctx, "social.execute")
		sp.SetAttr("seeker", "alice")
		sp.SetInt("k", 10)
		sp.SetBool("hit", true)
		sp.End()
		if Traceparent(c) != "" {
			t.Fatal("traceparent on untraced ctx")
		}
		if WireSpans(c) != nil {
			t.Fatal("wire spans on untraced ctx")
		}
		MergeRemote(c, nil)
	})
	if allocs != 0 {
		t.Fatalf("untraced span path allocates %v per op, want 0", allocs)
	}

	// Same guarantee through a context that carries an unsampled
	// request handle (tracer installed, head sampling skipped this one).
	tr := NewTracer(Config{SampleEvery: -1})
	uctx, rq := tr.StartRequest(context.Background(), "", http.MethodGet, "/v1/search")
	allocs = testing.AllocsPerRun(1000, func() {
		c, sp := StartSpan(uctx, "social.execute")
		sp.SetAttr("seeker", "alice")
		sp.End()
		if Traceparent(c) != "" {
			t.Fatal("traceparent on unsampled ctx")
		}
	})
	rq.Finish(http.StatusOK)
	if allocs != 0 {
		t.Fatalf("unsampled span path allocates %v per op, want 0", allocs)
	}
}

func TestSpanCapCountsDrops(t *testing.T) {
	tr := NewTracer(Config{SampleEvery: 1})
	ctx, rq := tr.StartRequest(context.Background(), "", http.MethodGet, "/x")
	for i := 0; i < maxTraceSpans+10; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	rq.Finish(http.StatusOK)
	rec, ok := tr.TraceByID(rq.TraceID())
	if !ok {
		t.Fatal("trace not recorded")
	}
	if len(rec.Spans) != maxTraceSpans {
		t.Fatalf("recorded %d spans, want cap %d", len(rec.Spans), maxTraceSpans)
	}
	if rec.DroppedSpans != 11 { // 10 over cap + root displaced one child
		t.Fatalf("DroppedSpans = %d, want 11", rec.DroppedSpans)
	}
}

package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/social"
)

// newTracedReplica is newReplica with an observability plane: head
// sampling off, so the replica collects spans only when a request
// arrives carrying a sampled traceparent — the cross-process posture.
func newTracedReplica(t *testing.T, node string) (*obs.Tracer, *httptest.Server) {
	t.Helper()
	cfg := social.DefaultServiceConfig()
	cfg.AutoCompactEvery = 1 << 30
	svc, err := social.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.Config{Node: node, SampleEvery: -1})
	srv.SetTracer(tracer)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return tracer, ts
}

// TestTracePropagationUnderBatchStorm drives concurrent batch storms
// through a front-end over traced replicas (run under -race in CI):
// every storm request is a sampled trace at the front-end, propagates
// its traceparent to the replicas, and stitches the spans they return
// in their answers' header back into its own trace. Pins both thread
// safety of concurrent span collection and end-to-end span continuity.
func TestTracePropagationUnderBatchStorm(t *testing.T) {
	rt1, ts1 := newTracedReplica(t, "r1")
	rt2, ts2 := newTracedReplica(t, "r2")
	clients := []*Client{
		newTestClient(t, ts1.URL, ClientConfig{}),
		newTestClient(t, ts2.URL, ClientConfig{}),
	}
	// Seed both replicas directly (the front-end has no log: its search
	// path is the unit under test) and fold the writes in.
	ctx := context.Background()
	for _, c := range clients {
		if _, err := c.Befriend(ctx, "alice", "bob", 0.9, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Tag(ctx, "bob", "luigis", "pizza", 2); err != nil {
			t.Fatal(err)
		}
		if _, err := deliver(ctx, c, []social.Mutation{{LSN: 3}}, true); err != nil {
			t.Fatal(err)
		}
	}
	front := newSearchFrontend(t, clients)

	feTracer := obs.NewTracer(obs.Config{Node: "fe", SampleEvery: 1, RecorderCapacity: 1024})
	batch := []search.Request{
		{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact},
		{Seeker: "bob", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact},
	}

	// Phase 1: 8 goroutines, each running its own traced requests.
	const workers, iters = 8, 20
	var wg sync.WaitGroup
	var traceIDs sync.Map
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rctx, rq := feTracer.StartRequest(context.Background(), "", http.MethodPost, "/v2/search/batch")
				out := front.DoBatch(rctx, batch)
				for _, r := range out {
					if r.Err != nil {
						t.Errorf("batch query failed: %v", r.Err)
					}
				}
				info := rq.Finish(http.StatusOK)
				traceIDs.Store(info.TraceID, true)
			}
		}()
	}
	wg.Wait()

	// Every trace must have stitched at least one replica-side span.
	checked := 0
	traceIDs.Range(func(k, _ interface{}) bool {
		checked++
		rec, ok := feTracer.TraceByID(k.(string))
		if !ok {
			t.Fatalf("trace %s not recorded", k)
		}
		names := map[string]bool{}
		replicaSpans := 0
		for _, sp := range rec.Spans {
			names[sp.Name] = true
			if sp.Node == "r1" || sp.Node == "r2" {
				replicaSpans++
			}
		}
		if !names["fleet.route"] || !names["fleet.rpc"] {
			t.Fatalf("trace %s missing front-end spans: %v", k, names)
		}
		if !names["social.execute"] || replicaSpans == 0 {
			t.Fatalf("trace %s has no stitched replica spans: %+v", k, rec.Spans)
		}
		return true
	})
	if checked != workers*iters {
		t.Fatalf("checked %d traces, want %d", checked, workers*iters)
	}

	// Phase 2: one shared trace, all workers batching concurrently —
	// the span list takes concurrent appends and remote merges, and the
	// cap must hold without losing the trace.
	sctx, srq := feTracer.StartRequest(context.Background(), "", http.MethodPost, "/v2/search/batch")
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				front.DoBatch(sctx, batch)
			}
		}()
	}
	wg.Wait()
	info := srq.Finish(http.StatusOK)
	rec, ok := feTracer.TraceByID(info.TraceID)
	if !ok {
		t.Fatal("shared storm trace not recorded")
	}
	if len(rec.Spans) == 0 {
		t.Fatal("shared storm trace recorded no spans")
	}

	// The replicas never head-sample on their own: with sampling off and
	// only wire-adopted traces, their recorders hold exactly the traced
	// storm requests, every one attributed to the front-end's trace ids.
	for name, rt := range map[string]*obs.Tracer{"r1": rt1, "r2": rt2} {
		for _, s := range rt.Traces() {
			if !s.Sampled {
				t.Fatalf("%s recorded an unsampled trace: %+v", name, s)
			}
			_, fromStorm := traceIDs.Load(s.ID)
			if !fromStorm && s.ID != info.TraceID {
				t.Fatalf("%s recorded foreign trace %s", name, s.ID)
			}
		}
	}
}

// newSearchFrontend is a front-end with no log over clients: the search
// path only, the health prober off.
func newSearchFrontend(t *testing.T, clients []*Client) *Frontend {
	t.Helper()
	pool, err := NewPool(clients, PoolConfig{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front, err := NewFrontend(pool, NewBroadcaster(clients, BroadcasterConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	return front
}

// seedTracedReplica makes seeker a friend of bob, who tags luigis
// pizza, on the replica behind c, folded in.
func seedTracedReplica(t *testing.T, c *Client, seeker string) {
	t.Helper()
	ctx := context.Background()
	if _, err := c.Befriend(ctx, seeker, "bob", 0.9, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Tag(ctx, "bob", "luigis", "pizza", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := deliver(ctx, c, []social.Mutation{{LSN: 3}}, true); err != nil {
		t.Fatal(err)
	}
}

// TestRouteSpanCopiesTheSeeker: the seeker attribute of a sampled
// SearchBytes's fleet.route span is a copy, not a substring of the
// request body the seeker was read from, which the recorded trace would
// otherwise keep alive.
func TestRouteSpanCopiesTheSeeker(t *testing.T) {
	_, ts := newTracedReplica(t, "r1")
	c := newTestClient(t, ts.URL, ClientConfig{})
	seedTracedReplica(t, c, "alice")
	front := newSearchFrontend(t, []*Client{c})

	tracer := obs.NewTracer(obs.Config{SampleEvery: 1})
	body := []byte(`{"seeker":"alice","tags":["pizza"]}`)
	seeker := unsafe.String(&body[11], 5)
	rctx, rq := tracer.StartRequest(context.Background(), "", http.MethodPost, "/v2/search")
	if _, err := front.SearchBytes(rctx, search.Request{Seeker: seeker, Tags: []string{"pizza"}, K: 3}, body, nil); err != nil {
		t.Fatal(err)
	}
	rq.Finish(http.StatusOK)
	rec, ok := tracer.TraceByID(rq.TraceID())
	if !ok {
		t.Fatal("the sampled trace was not recorded")
	}
	for _, sp := range rec.Spans {
		for _, a := range sp.Attrs {
			if sp.Name != "fleet.route" || a.Key != "seeker" {
				continue
			}
			lo := uintptr(unsafe.Pointer(&body[0]))
			if p := uintptr(unsafe.Pointer(unsafe.StringData(a.Value))); lo <= p && p < lo+uintptr(len(body)) {
				t.Fatalf("fleet.route's seeker attribute %q points into the request body", a.Value)
			}
			if a.Value != "alice" {
				t.Fatalf("fleet.route's seeker attribute %q, want alice", a.Value)
			}
			return
		}
	}
	t.Fatalf("no fleet.route span recorded the seeker: %+v", rec.Spans)
}

// TestSpansHeaderCarriesAnyName: a seeker name is a client's string,
// and the replica's spans record it. Through a sampled front door, a
// name holding non-ASCII, a quote and control bytes reaches the
// front-end's trace intact in the replica's social.execute span, and
// the answer the client gets is the replica's answer alone: the spans
// ride the header, never the body.
func TestSpansHeaderCarriesAnyName(t *testing.T) {
	_, ts := newTracedReplica(t, "r1")
	c := newTestClient(t, ts.URL, ClientConfig{})
	name := "ál\"i\x01ce\t\x7f\x1b😀 <&>\u2028"
	seedTracedReplica(t, c, name)
	front := newSearchFrontend(t, []*Client{c})
	door, err := server.New(front)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.Config{Node: "fe", SampleEvery: 1})
	door.SetTracer(tracer)

	query, err := json.Marshal(server.V2Query{Seeker: name, Tags: []string{"pizza"}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v2/search", "/v2/search/batch"} {
		body := string(query)
		if path == "/v2/search/batch" {
			body = `{"queries":[` + body + `]}`
		}
		rec := httptest.NewRecorder()
		door.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		want := `{"results":[{"item":"luigis","score":0.54}]}` + "\n"
		if path == "/v2/search/batch" {
			want = `{"results":[` + strings.TrimSuffix(want, "\n") + "]}\n"
		}
		if rec.Code != http.StatusOK || rec.Body.String() != want {
			t.Fatalf("%s: %d %q, want %q", path, rec.Code, rec.Body, want)
		}
		if h := rec.Header().Get(obs.SpansHeader); h != "" {
			t.Errorf("%s: the front door's answer carries a spans header", path)
		}
		traces := tracer.Traces()
		rt, ok := tracer.TraceByID(traces[len(traces)-1].ID)
		if !ok {
			t.Fatalf("%s: the sampled trace was not recorded", path)
		}
		found := false
		for _, sp := range rt.Spans {
			for _, a := range sp.Attrs {
				if sp.Node == "r1" && sp.Name == "social.execute" && a.Key == "seeker" {
					found = true
					if a.Value != name {
						t.Errorf("%s: the replica's seeker attribute %q, want %q", path, a.Value, name)
					}
				}
			}
		}
		if !found {
			t.Errorf("%s: no stitched replica span recorded the seeker: %+v", path, rt.Spans)
		}
	}
}

package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

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

// TestTracePropagationUnderBatchStorm drives concurrent DoBatch storms
// through a pool of traced replicas (run under -race in CI): every
// storm request is a sampled trace at the front-end, propagates its
// traceparent to the replicas, and stitches the replicas' spans back
// into its own trace. Pins both thread safety of concurrent span
// collection and end-to-end span continuity.
func TestTracePropagationUnderBatchStorm(t *testing.T) {
	rt1, ts1 := newTracedReplica(t, "r1")
	rt2, ts2 := newTracedReplica(t, "r2")
	clients := []*Client{
		newTestClient(t, ts1.URL, ClientConfig{}),
		newTestClient(t, ts2.URL, ClientConfig{}),
	}
	// Seed both replicas directly (no front-end here: the pool is the
	// unit under test) and fold the writes in.
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
	pool, err := NewPool(clients, PoolConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)

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
				rctx, rq := feTracer.StartRequest(context.Background(), "", http.MethodPost, "/v1/search/batch")
				out := pool.DoBatch(rctx, batch)
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
	sctx, srq := feTracer.StartRequest(context.Background(), "", http.MethodPost, "/v1/search/batch")
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				pool.DoBatch(sctx, batch)
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

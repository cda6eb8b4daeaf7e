package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/server"
)

// shedServer answers 429 with a Retry-After header while shedding is
// on, and a minimal valid search response once turned off.
func shedServer(t *testing.T, retryAfter string) (*httptest.Server, *atomic.Bool, *atomic.Int64) {
	t.Helper()
	shedding := &atomic.Bool{}
	shedding.Store(true)
	calls := &atomic.Int64{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if shedding.Load() {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			http.Error(w, `{"error":"search backend overloaded: admission queue full"}`, http.StatusTooManyRequests)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"results":[{"item":"x","score":1}]}` + "\n"))
	}))
	t.Cleanup(ts.Close)
	return ts, shedding, calls
}

// TestClient429IsOverloadedWithRetryAfter pins the wire→error mapping
// the overload story depends on: 429 is search.ErrOverloaded — retry
// the same replica after the advertised backoff — and is NOT the
// failover class. A shed is decisive: the client answers it after
// exactly one call, adding nothing to the replica's overload.
func TestClient429IsOverloadedWithRetryAfter(t *testing.T) {
	ts, _, calls := shedServer(t, "7")
	c := newTestClient(t, ts.URL, ClientConfig{})

	_, err := c.Do(context.Background(), search.Request{Seeker: "a", Tags: []string{"x"}})
	if !errors.Is(err, search.ErrOverloaded) {
		t.Fatalf("429 error = %v, want ErrOverloaded", err)
	}
	if errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("429 error %v must not be failover-eligible", err)
	}
	var oe *search.OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("429 error %v does not carry an OverloadError", err)
	}
	if oe.RetryAfter != 7*time.Second {
		t.Fatalf("RetryAfter = %v, want 7s (parsed from header)", oe.RetryAfter)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("replica saw %d calls, want exactly 1", n)
	}
}

// TestClient429WithoutHeader still classifies as overloaded, with no
// backoff hint.
func TestClient429WithoutHeader(t *testing.T) {
	ts, _, _ := shedServer(t, "")
	c := newTestClient(t, ts.URL, ClientConfig{})
	_, err := c.Do(context.Background(), search.Request{Seeker: "a", Tags: []string{"x"}})
	if !errors.Is(err, search.ErrOverloaded) {
		t.Fatalf("headerless 429 error = %v, want ErrOverloaded", err)
	}
	var oe *search.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter != 0 {
		t.Fatalf("RetryAfter = %v, want 0 without a header", oe.RetryAfter)
	}
}

// TestPoolNoFailoverOnShed: the front-end's search path must return the
// shed verbatim rather than spill the query to a sibling (which is the unavailable
// class's cure, and under overload would only propagate the overload),
// and the shed must not poison the replica's health state.
func TestPoolNoFailoverOnShed(t *testing.T) {
	ctx := context.Background()
	tsA, sheddingA, callsA := shedServer(t, "1")
	tsB, sheddingB, callsB := shedServer(t, "1")
	front := newShedFrontend(t, tsA, tsB)

	req := search.Request{Seeker: "alice", Tags: []string{"x"}, K: 3}
	body := []byte(`{"seeker":"alice","tags":["x"],"k":3}`)
	_, err := front.SearchBytes(ctx, req, body, nil)
	if !errors.Is(err, search.ErrOverloaded) {
		t.Fatalf("pool err = %v, want ErrOverloaded", err)
	}
	if n := callsA.Load() + callsB.Load(); n != 1 {
		t.Fatalf("fleet saw %d calls for one shed query, want 1 (no failover)", n)
	}

	// The replica recovers; with FailAfter=1 a single unavailable-class
	// error would have ejected it, so an immediately successful retry
	// proves sheds never fed the health accounting.
	sheddingA.Store(false)
	sheddingB.Store(false)
	if _, err := front.SearchBytes(ctx, req, body, nil); err != nil {
		t.Fatalf("retry after shed failed: %v (was the replica ejected?)", err)
	}
}

// newShedFrontend is a front-end with no log over the shed servers, the
// health prober off, ejecting a replica at its first failure.
func newShedFrontend(t *testing.T, servers ...*httptest.Server) *Frontend {
	t.Helper()
	var clients []*Client
	for _, ts := range servers {
		clients = append(clients, newTestClient(t, ts.URL, ClientConfig{}))
	}
	pool, err := NewPool(clients, PoolConfig{HealthInterval: -1, FailAfter: 1})
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

// TestPoolBatchNoRerouteOnShed: shed batch entries keep their
// ErrOverloaded verdict instead of being re-routed to a sibling.
func TestPoolBatchNoRerouteOnShed(t *testing.T) {
	ctx := context.Background()
	tsA, _, callsA := shedServer(t, "1")
	tsB, _, callsB := shedServer(t, "1")
	front := newShedFrontend(t, tsA, tsB)

	reqs := []search.Request{
		{Seeker: "alice", Tags: []string{"x"}, K: 3},
		{Seeker: "bob", Tags: []string{"x"}, K: 3},
	}
	queries := []string{`{"seeker":"alice","tags":["x"],"k":3}`, `{"seeker":"bob","tags":["x"],"k":3}`}
	entries := make([][]byte, len(reqs))
	out := front.SearchBatchBytes(ctx, reqs, queries, entries)
	for i, r := range out {
		if !errors.Is(r.Err, search.ErrOverloaded) {
			t.Fatalf("batch[%d].Err = %v, want ErrOverloaded", i, r.Err)
		}
	}
	// Each seeker's owner saw its entry exactly once: no re-route.
	if n := callsA.Load() + callsB.Load(); n > 2 {
		t.Fatalf("fleet saw %d calls for a 2-entry shed batch, want <= 2 (no re-route)", n)
	}
}

// TestClientDeadlineShrinksAttempt: a caller deadline shorter than the
// configured per-attempt timeout must bound the attempt — the request
// fails with the context's error as soon as the deadline passes, not
// after the full client timeout.
func TestClientDeadlineShrinksAttempt(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(release) // unblock the handler before Close waits on it

	c := newTestClient(t, slow.URL, ClientConfig{Timeout: 30 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Do(ctx, search.Request{Seeker: "a", Tags: []string{"x"}})
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("attempt ran %v, caller deadline was 50ms: per-attempt timeout did not shrink", elapsed)
	}
}

// TestFrontendPropagatesRetryAfterOnFanout pins the shared-fate shed
// contract end to end: a replica shedding with 429 + Retry-After makes
// the FRONT-END answer the client 429 with the same hint — on the
// query path and per entry in a batch (error_kind "overloaded" +
// retry_after_ms on the wire) — and never ejects the replica or fails
// over onto ring successors. (Replicas never shed the replication
// apply path.)
func TestFrontendPropagatesRetryAfterOnFanout(t *testing.T) {
	ts, _, _ := shedServer(t, "7")
	c := newTestClient(t, ts.URL, ClientConfig{})
	pool, err := NewPool([]*Client{c}, PoolConfig{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	bcast := NewBroadcaster([]*Client{c}, BroadcasterConfig{})
	front, err := NewFrontend(pool, bcast)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(front.Close)
	srv, err := server.New(front)
	if err != nil {
		t.Fatal(err)
	}
	door := httptest.NewServer(srv)
	t.Cleanup(door.Close)

	post := func(path, body string) *http.Response {
		t.Helper()
		resp, err := door.Client().Post(door.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}

	// Query path: the replica's shed surfaces as the front door's shed.
	resp := post("/v2/search", `{"seeker":"a","tags":["x"],"k":1}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fan-out search status = %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("search Retry-After = %q, want %q (the replica's hint)", got, "7")
	}

	if !pool.Live(0) {
		t.Fatal("replica ejected for shedding — overload is not a health failure")
	}

	// Batch path: the shed survives per entry, typed, with its hint.
	resp = post("/v2/search/batch", `{"queries":[{"seeker":"a","tags":["x"],"k":1}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch envelope status = %d, want 200 (per-entry errors)", resp.StatusCode)
	}
	var batch struct {
		Results []struct {
			Error        string `json:"error"`
			ErrorKind    string `json:"error_kind"`
			RetryAfterMS int64  `json:"retry_after_ms"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 1 {
		t.Fatalf("batch answers = %d, want 1", len(batch.Results))
	}
	e := batch.Results[0]
	if e.ErrorKind != server.ErrKindOverloaded || e.RetryAfterMS != 7000 {
		t.Fatalf("batch entry = %+v, want error_kind %q with retry_after_ms 7000", e, server.ErrKindOverloaded)
	}
}

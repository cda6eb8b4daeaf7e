package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"encoding/json"

	"repro/internal/search"
	"repro/internal/social"
)

func decode(t *testing.T, rec *httptest.ResponseRecorder, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decoding %s: %v", rec.Body, err)
	}
}

// TestReadyz pins the readiness endpoint: 200 while ready, 503 once
// readiness is withdrawn, and liveness (/healthz) stays 200 throughout.
func TestReadyz(t *testing.T) {
	s, _ := newTestServer(t)
	if rec := doJSON(t, s, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("/readyz before drain: status %d", rec.Code)
	}
	s.SetReady(false)
	if rec := doJSON(t, s, http.MethodGet, "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: status %d, want 503", rec.Code)
	}
	if rec := doJSON(t, s, http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("/healthz while draining: status %d, want 200 (liveness != readiness)", rec.Code)
	}
	s.SetReady(true)
	if rec := doJSON(t, s, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("/readyz after recovery: status %d", rec.Code)
	}
}

// TestInvalidateEndpoint drives the broadcast-receiving side: pending
// writes become queryable, edge-scoped entries drop, the cache survives
// unrelated edges, and all=true drops everything.
func TestInvalidateEndpoint(t *testing.T) {
	cfg := social.DefaultServiceConfig()
	cfg.AutoCompactEvery = 1 << 30 // fleet replica posture: manual compaction
	svc, err := social.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	seedHTTP(t, s)

	// The seed is pending: a search cannot succeed until an
	// invalidation broadcast folds it into the snapshot.
	if rec := doJSON(t, s, http.MethodGet, "/v1/search?seeker=alice&tags=pizza&k=3", nil); rec.Code == http.StatusOK {
		t.Fatalf("pre-broadcast search succeeded; replica posture must defer visibility to the broadcast")
	}
	rec := doJSON(t, s, http.MethodPost, "/v2/invalidate", map[string]interface{}{"edges": [][2]string{{"alice", "bob"}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("/v2/invalidate: status %d body %s", rec.Code, rec.Body)
	}
	if rec := doJSON(t, s, http.MethodGet, "/v1/search?seeker=alice&tags=pizza&k=3", nil); rec.Code != http.StatusOK {
		t.Fatalf("post-broadcast search: status %d body %s", rec.Code, rec.Body)
	}

	// Warm a cached horizon, then check an edge-scoped drop: an edge
	// touching the seeker's horizon drops it, a disjoint edge does not.
	warm := func() {
		t.Helper()
		if rec := doJSON(t, s, http.MethodGet, "/v1/search?seeker=alice&tags=pizza&k=3", nil); rec.Code != http.StatusOK {
			t.Fatalf("warm search: status %d", rec.Code)
		}
	}
	warm()
	before := svc.Stats().SeekerCache.Invalidations
	rec = doJSON(t, s, http.MethodPost, "/v2/invalidate", map[string]interface{}{"edges": [][2]string{{"nobody1", "nobody2"}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("disjoint invalidate: status %d", rec.Code)
	}
	if got := svc.Stats().SeekerCache.Invalidations; got != before {
		t.Fatalf("disjoint edge invalidated %d entries, want 0", got-before)
	}
	rec = doJSON(t, s, http.MethodPost, "/v2/invalidate", map[string]interface{}{"edges": [][2]string{{"bob", "carol"}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("scoped invalidate: status %d", rec.Code)
	}
	var dropped InvalidateResponse
	decode(t, rec, &dropped)
	if dropped.Dropped < 1 {
		t.Fatalf("scoped invalidate dropped %d, want >=1 (alice's horizon contains bob)", dropped.Dropped)
	}

	// all=true: everything goes.
	warm()
	rec = doJSON(t, s, http.MethodPost, "/v2/invalidate", map[string]interface{}{"all": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("global invalidate: status %d", rec.Code)
	}
	decode(t, rec, &dropped)
	if dropped.Dropped < 1 {
		t.Fatalf("global invalidate dropped %d, want >=1", dropped.Dropped)
	}

	// Malformed body and wrong method are client errors.
	if rec := doJSON(t, s, http.MethodPost, "/v2/invalidate", "not an object"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed invalidate: status %d", rec.Code)
	}
	if rec := doJSON(t, s, http.MethodGet, "/v2/invalidate", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET invalidate: status %d", rec.Code)
	}
}

// statsAnyBackend is a front-end whose stats are a payload the server
// does not know, and whose searches can be made unavailable.
type statsAnyBackend struct {
	noopFrontend
	unavailable bool
}

func (b *statsAnyBackend) Do(ctx context.Context, req search.Request) (search.Response, error) {
	if b.unavailable {
		return search.Response{}, fmt.Errorf("%w: every replica down", search.ErrUnavailable)
	}
	return b.noopFrontend.Do(ctx, req)
}

func (b *statsAnyBackend) StatsAny() interface{} {
	return map[string]int{"replicas": 3}
}

// TestStatsAnyAndUnavailable pins the two server behaviours the fleet
// front door depends on: /v1/stats serves the generic StatsAny payload,
// and an ErrUnavailable answer maps to 503.
func TestStatsAnyAndUnavailable(t *testing.T) {
	b := &statsAnyBackend{}
	s, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"replicas":3`) {
		t.Fatalf("/v1/stats: status %d body %s", rec.Code, rec.Body)
	}

	b.unavailable = true
	rec = doJSON(t, s, http.MethodPost, "/v2/search", map[string]interface{}{"seeker": "a", "tags": []string{"x"}})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unavailable search: status %d, want 503", rec.Code)
	}
}

// TestGracefulDrain runs a real listener through a SIGTERM-equivalent
// shutdown: readiness flips to 503 while the drain window is open, an
// in-flight request finishes with 200, and ListenAndServe returns
// cleanly.
func TestGracefulDrain(t *testing.T) {
	s, svc := newTestServer(t)
	if err := svc.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := svc.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	s.SetDrainDelay(300 * time.Millisecond)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // free the port for ListenAndServe (tiny race, test-only)

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx, addr, 5*time.Second) }()

	base := "http://" + addr
	waitOK := func(path string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			resp, err := http.Get(base + path)
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("%s never answered 200", path)
	}
	waitOK("/readyz")

	// Fire the in-flight request, then trigger shutdown while it runs.
	inflight := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/v1/search?seeker=alice&tags=pizza&k=3")
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight search: status %d", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	cancel()

	// During the drain window the process still serves, but /readyz
	// reports 503 so balancers stop routing to it.
	sawDraining := false
	for i := 0; i < 20; i++ {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			break // listener closed: drain window over
		}
		code := resp.StatusCode
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			sawDraining = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawDraining {
		t.Fatal("/readyz never reported draining during the drain window")
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request lost during drain: %v", err)
	}
	if err := <-served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("ListenAndServe: %v", err)
	}
}

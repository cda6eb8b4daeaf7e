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

// TestApplyFold drives the fold an apply page asks for: the records of
// a page without "fold" stay pending (a replica in fleet posture
// answers from its last folded snapshot), a page with it folds them and
// its own records in before it answers, and a fold that fails is a 500
// with the page's records applied.
func TestApplyFold(t *testing.T) {
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
	searchCode := func() int {
		return doJSON(t, s, http.MethodGet, "/v1/search?seeker=alice&tags=pizza&k=3", nil).Code
	}
	if rec := applyPage(t, s, befriendAt(1, "alice", "bob", 0.9), tagAt(2, "bob", "luigis", "pizza")); rec.Code != http.StatusOK {
		t.Fatalf("page without fold: status %d body %s", rec.Code, rec.Body)
	}
	if code := searchCode(); code == http.StatusOK {
		t.Fatal("search succeeded before a fold; replica posture must defer visibility to the fold")
	}
	if st := svc.Stats(); st.PendingWrites == 0 {
		t.Fatalf("stats = %+v after a page without fold, want pending writes", st)
	}

	rec := doJSON(t, s, http.MethodPost, "/v2/apply", ApplyRequest{Records: []social.Mutation{{LSN: 3}}, Fold: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("page with fold: status %d body %s", rec.Code, rec.Body)
	}
	var resp AppliedResponse
	decode(t, rec, &resp)
	if resp.AppliedLSN != 3 {
		t.Fatalf("applied_lsn = %d, want 3", resp.AppliedLSN)
	}
	if st := svc.Stats(); st.PendingWrites != 0 {
		t.Fatalf("stats = %+v after a page with fold, want nothing pending", st)
	}
	if code := searchCode(); code != http.StatusOK {
		t.Fatalf("search after the fold: status %d", code)
	}

	rep := &foldFailReplica{}
	s2, err := New(rep)
	if err != nil {
		t.Fatal(err)
	}
	rec = doJSON(t, s2, http.MethodPost, "/v2/apply", ApplyRequest{Records: []social.Mutation{{LSN: 1}}, Fold: true})
	if rec.Code != http.StatusInternalServerError || rep.applied != 1 {
		t.Fatalf("failed fold: status %d, cursor %d; want 500 with the page applied (cursor 1)", rec.Code, rep.applied)
	}
	if rec := applyPage(t, s2, social.Mutation{LSN: 2}); rec.Code != http.StatusOK {
		t.Fatalf("page without fold on the same replica: status %d, want 200 (no fold asked)", rec.Code)
	}
}

// foldFailReplica applies records but cannot fold them.
type foldFailReplica struct{ cursorReplica }

func (*foldFailReplica) Flush() error { return errors.New("disk full") }

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

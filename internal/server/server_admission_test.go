package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/search"
	"repro/internal/social"
)

// countingBackend is a real replica that counts Do calls, so tests can
// assert that refused requests never reached the engine.
type countingBackend struct {
	*social.Service
	dos atomic.Int64
}

func (c *countingBackend) Do(ctx context.Context, req search.Request) (search.Response, error) {
	c.dos.Add(1)
	return c.Service.Do(ctx, req)
}

func newAdmissionServer(t *testing.T, cfg admission.Config) (*Server, *countingBackend, *admission.Controller) {
	t.Helper()
	scfg := social.DefaultServiceConfig()
	scfg.AutoCompactEvery = 0
	svc, err := social.NewService(scfg)
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Service: svc}
	s, err := New(cb)
	if err != nil {
		t.Fatal(err)
	}
	ctrl := admission.New(cfg)
	s.SetAdmission(ctrl)
	seedHTTP(t, s)
	return s, cb, ctrl
}

func waitQueued(t *testing.T, ctrl *admission.Controller, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for ctrl.Snapshot().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for queue depth %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestShedAnswers429WithRetryAfter(t *testing.T) {
	s, cb, ctrl := newAdmissionServer(t, admission.Config{
		MinWindow: 1, MaxWindow: 1, InitialWindow: 1, QueueLimit: 1,
	})

	// Occupy the single window slot and fill the queue.
	tk, err := ctrl.Acquire(context.Background(), admission.Read)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release(nil)
	queued := make(chan error, 1)
	go func() {
		tk, err := ctrl.Acquire(context.Background(), admission.Read)
		if err == nil {
			tk.Release(nil)
		}
		queued <- err
	}()
	waitQueued(t, ctrl, 1)

	before := cb.dos.Load()
	rec := doJSON(t, s, http.MethodGet, "/v1/search?seeker=alice&tags=pizza&k=3", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d body %s, want 429", rec.Code, rec.Body)
	}
	ra := rec.Header().Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want whole seconds >= 1", ra)
	}
	if !strings.Contains(rec.Body.String(), "overloaded") {
		t.Fatalf("shed body %s does not name the overload", rec.Body)
	}
	if cb.dos.Load() != before {
		t.Fatal("shed request reached the backend")
	}

	// Free the slot so the queued acquire resolves.
	tk.Release(nil)
	<-queued
}

func TestDeadlineExpiredWhileQueuedIs499NoEngineWork(t *testing.T) {
	s, cb, ctrl := newAdmissionServer(t, admission.Config{
		MinWindow: 1, MaxWindow: 1, InitialWindow: 1, QueueLimit: 8,
	})
	tk, err := ctrl.Acquire(context.Background(), admission.Read)
	if err != nil {
		t.Fatal(err)
	}

	before := cb.dos.Load()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodGet, "/v1/search?seeker=alice&tags=pizza&k=3", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req) // queues behind tk, then the ctx deadline fires

	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("expired-while-queued status = %d body %s, want %d", rec.Code, rec.Body, StatusClientClosedRequest)
	}
	if cb.dos.Load() != before {
		t.Fatal("expired request reached the backend: engine work was wasted")
	}
	if got := ctrl.Snapshot().CanceledQueued; got != 1 {
		t.Fatalf("CanceledQueued = %d, want 1", got)
	}
	tk.Release(nil)
}

func TestWriteAdmittedWhileReadsQueueFull(t *testing.T) {
	s, _, ctrl := newAdmissionServer(t, admission.Config{
		MinWindow: 1, MaxWindow: 1, InitialWindow: 1, QueueLimit: 1,
	})
	tk, err := ctrl.Acquire(context.Background(), admission.Read)
	if err != nil {
		t.Fatal(err)
	}
	readShed := make(chan error, 1)
	go func() {
		_, err := ctrl.Acquire(context.Background(), admission.Read)
		readShed <- err
	}()
	waitQueued(t, ctrl, 1)

	// The write displaces the queued read instead of being refused.
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- doJSON(t, s, http.MethodPost, "/v1/friend", FriendRequest{A: "alice", B: "dave", Weight: 0.5})
	}()
	if err := <-readShed; err == nil {
		t.Fatal("queued read survived a write at a full queue")
	}
	tk.Release(nil) // free the slot: the queued write proceeds
	if rec := <-done; rec.Code != http.StatusNoContent {
		t.Fatalf("write at full queue: status %d body %s, want 204", rec.Code, rec.Body)
	}
}

func TestStatsEnvelopeWithAdmission(t *testing.T) {
	s, _, ctrl := newAdmissionServer(t, admission.Config{})
	// Produce some traffic so the counters are nonzero.
	if rec := doJSON(t, s, http.MethodGet, "/v1/search?seeker=alice&tags=pizza&k=3", nil); rec.Code != http.StatusOK {
		t.Fatalf("search: %d %s", rec.Code, rec.Body)
	}
	rec := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var env struct {
		Admission admission.Snapshot     `json:"Admission"`
		Backend   map[string]interface{} `json:"Backend"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatalf("stats body is not an admission envelope: %v\n%s", err, rec.Body)
	}
	if env.Admission.Admitted < 1 {
		t.Fatalf("Admitted = %d, want >= 1", env.Admission.Admitted)
	}
	if env.Admission.Window <= 0 {
		t.Fatalf("Window = %v, want > 0", env.Admission.Window)
	}
	if _, ok := env.Backend["Users"]; !ok {
		t.Fatalf("backend stats missing under envelope: %s", rec.Body)
	}
	_ = ctrl
}

func TestStatsUnchangedWithoutAdmission(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	rec := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var raw map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if _, ok := raw["Admission"]; ok {
		t.Fatalf("stats wire changed without admission installed: %s", rec.Body)
	}
	if _, ok := raw["Users"]; !ok {
		t.Fatalf("backend stats not top-level: %s", rec.Body)
	}
}

func TestReplicatedApplyBypassesAdmission(t *testing.T) {
	s, _, ctrl := newAdmissionServer(t, admission.Config{
		MinWindow: 1, MaxWindow: 1, InitialWindow: 1, QueueLimit: 1,
	})
	// Saturate the controller completely.
	tk, err := ctrl.Acquire(context.Background(), admission.Read)
	if err != nil {
		t.Fatal(err)
	}
	defer tk.Release(nil)

	// An LSN-stamped mutation (the fleet replication path) must apply
	// even with the window and queue full — shedding it would eject the
	// replica as divergent.
	lsn := uint64(1)
	rec := doJSON(t, s, http.MethodPost, "/v1/friend", FriendRequest{A: "alice", B: "erin", Weight: 0.5, LSN: lsn})
	if rec.Code != http.StatusOK {
		t.Fatalf("stamped mutation under overload: status %d body %s, want 200 with cursor", rec.Code, rec.Body)
	}
	if shed := ctrl.Snapshot().Shed(); shed != 0 {
		t.Fatalf("stamped mutation shed (%d), must bypass admission", shed)
	}
}

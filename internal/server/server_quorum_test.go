package server

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/quorum"
)

// followerBackend refuses unstamped mutations the way an HA follower
// front-end does: with the leader's address when one is known.
type followerBackend struct {
	noopFrontend
	leaderURL string
}

func (b followerBackend) BefriendCtx(ctx context.Context, a, b2 string, weight float64) error {
	return &quorum.NotLeaderError{LeaderID: "fe2", LeaderURL: b.leaderURL}
}
func (b followerBackend) TagCtx(ctx context.Context, user, item, tag string) error {
	return &quorum.NotLeaderError{LeaderID: "fe2", LeaderURL: b.leaderURL}
}
func (b followerBackend) QuorumRole() (string, string, uint64) {
	return "follower", b.leaderURL, 7
}

// TestFollowerWriteRedirects pins the HA write-routing wire: a
// follower answers unstamped mutations with 307 and the leader's copy
// of the same endpoint, so clients that chase the redirect replay
// method and body against the leader.
func TestFollowerWriteRedirects(t *testing.T) {
	s, err := New(followerBackend{leaderURL: "http://leader:7777"})
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, s, http.MethodPost, "/v1/friend", FriendRequest{A: "a", B: "b", Weight: 0.5})
	if rec.Code != http.StatusTemporaryRedirect {
		t.Fatalf("follower friend: status %d, want 307; body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Location"); got != "http://leader:7777/v1/friend" {
		t.Fatalf("Location = %q, want the leader's /v1/friend", got)
	}
	rec = doJSON(t, s, http.MethodPost, "/v1/tag", TagRequest{User: "u", Item: "i", Tag: "t"})
	if rec.Code != http.StatusTemporaryRedirect {
		t.Fatalf("follower tag: status %d, want 307; body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Location"); got != "http://leader:7777/v1/tag" {
		t.Fatalf("Location = %q, want the leader's /v1/tag", got)
	}
}

// TestFollowerWriteMidElectionIs503 pins the no-leader case: with no
// address to redirect to, the refusal is a plain retry-later 503.
func TestFollowerWriteMidElectionIs503(t *testing.T) {
	s, err := New(followerBackend{})
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, s, http.MethodPost, "/v1/friend", FriendRequest{A: "a", B: "b", Weight: 0.5})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("mid-election friend: status %d, want 503; body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Location"); got != "" {
		t.Fatalf("Location = %q, want none", got)
	}
}

// TestHealthzQuorumHeaders pins the role surface health probes use: a
// Frontend backend with a quorum role stamps /healthz with its role, leader and term;
// a plain backend leaves the headers off entirely.
func TestHealthzQuorumHeaders(t *testing.T) {
	s, err := New(followerBackend{leaderURL: "http://leader:7777"})
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, s, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Quorum-Role"); got != "follower" {
		t.Fatalf("X-Quorum-Role = %q, want follower", got)
	}
	if got := rec.Header().Get("X-Quorum-Leader"); got != "http://leader:7777" {
		t.Fatalf("X-Quorum-Leader = %q", got)
	}
	if got := rec.Header().Get("X-Quorum-Term"); got != "7" {
		t.Fatalf("X-Quorum-Term = %q, want 7", got)
	}

	plain, _ := newTestServer(t)
	rec = doJSON(t, plain, http.MethodGet, "/healthz", nil)
	if got := rec.Header().Get("X-Quorum-Role"); got != "" {
		t.Fatalf("plain backend X-Quorum-Role = %q, want unset", got)
	}
}

// TestSkipEndpoint drives /v1/skip: in-order skips advance the cursor
// like stamped mutations, duplicates are idempotent, gaps answer 409,
// zero and non-LSN backends answer 400, GET answers 405.
func TestSkipEndpoint(t *testing.T) {
	s, svc := newTestServer(t)

	rec := doJSON(t, s, http.MethodPost, "/v1/skip", SkipRequest{LSN: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("skip 1: status %d body %s", rec.Code, rec.Body)
	}
	var ack AppliedResponse
	decode(t, rec, &ack)
	if ack.AppliedLSN != 1 {
		t.Fatalf("applied_lsn = %d, want 1", ack.AppliedLSN)
	}

	// Idempotent redelivery.
	rec = doJSON(t, s, http.MethodPost, "/v1/skip", SkipRequest{LSN: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("skip 1 redelivered: status %d body %s", rec.Code, rec.Body)
	}

	// A skipped record interleaves with stamped applies on one cursor.
	rec = doJSON(t, s, http.MethodPost, "/v1/friend",
		FriendRequest{A: "alice", B: "bob", Weight: 0.9, LSN: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("stamped friend after skip: status %d body %s", rec.Code, rec.Body)
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor = %d, want 2", got)
	}

	// Gap.
	rec = doJSON(t, s, http.MethodPost, "/v1/skip", SkipRequest{LSN: 9})
	if rec.Code != http.StatusConflict {
		t.Fatalf("gap skip: status %d, want 409; body %s", rec.Code, rec.Body)
	}

	// Zero LSN, wrong method, LSN-less backend.
	rec = doJSON(t, s, http.MethodPost, "/v1/skip", SkipRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("skip 0: status %d, want 400", rec.Code)
	}
	rec = doJSON(t, s, http.MethodGet, "/v1/skip", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET skip: status %d, want 405", rec.Code)
	}
	bare, err := New(unavailableBackend{})
	if err != nil {
		t.Fatal(err)
	}
	rec = doJSON(t, bare, http.MethodPost, "/v1/skip", SkipRequest{LSN: 1})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("skip on LSN-less backend: status %d, want 400", rec.Code)
	}
}

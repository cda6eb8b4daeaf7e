package server

import (
	"context"
	"net/http"
	"testing"

	"repro/internal/quorum"
	"repro/internal/social"
)

// followerBackend refuses unstamped mutations the way an HA follower
// front-end does: with the leader's address when one is known.
type followerBackend struct {
	noopFrontend
	leaderURL string
}

func (b followerBackend) Mutate(ctx context.Context, m social.Mutation) error {
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

// TestSkipEndpoint drives the skip entry of an apply page (a record
// without "kind", the form a quorum leadership record takes): in-order
// skips advance the cursor like any record, duplicates are idempotent,
// gaps answer 409, and /v1/skip — the endpoint skips once had — is
// unrouted.
func TestSkipEndpoint(t *testing.T) {
	s, svc := newTestServer(t)

	rec := postRaw(s, "/v2/apply", `{"records":[{"lsn":1}]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("skip 1: status %d body %s", rec.Code, rec.Body)
	}
	var ack AppliedResponse
	decode(t, rec, &ack)
	if ack.AppliedLSN != 1 || len(svc.Users()) != 0 {
		t.Fatalf("applied_lsn = %d, users %v; want 1 and nothing applied", ack.AppliedLSN, svc.Users())
	}

	// Idempotent redelivery; a skip interleaves with applies on one
	// cursor.
	rec = applyPage(t, s, social.Mutation{LSN: 1}, befriendAt(2, "alice", "bob", 0.9), social.Mutation{LSN: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("skip, befriend, skip: status %d body %s", rec.Code, rec.Body)
	}
	if got := svc.AppliedLSN(); got != 3 {
		t.Fatalf("cursor = %d, want 3", got)
	}

	// Gap.
	if rec = applyPage(t, s, social.Mutation{LSN: 9}); rec.Code != http.StatusConflict {
		t.Fatalf("gap skip: status %d, want 409; body %s", rec.Code, rec.Body)
	}
	if rec = postRaw(s, "/v1/skip", `{"lsn":4}`); rec.Code != http.StatusNotFound {
		t.Fatalf("POST /v1/skip: status %d, want 404 (unrouted)", rec.Code)
	}
	if got := svc.AppliedLSN(); got != 3 {
		t.Fatalf("cursor = %d after a gap and /v1/skip, want 3", got)
	}
}

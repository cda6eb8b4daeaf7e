package server

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"repro/internal/search"
)

// TestStampedMutations drives the LSN-stamped mutation wire: in-order
// records apply and answer the cursor, duplicates are idempotent, gaps
// answer 409, and /healthz reports the cursor in X-Applied-LSN.
func TestStampedMutations(t *testing.T) {
	s, svc := newTestServer(t)

	rec := doJSON(t, s, http.MethodPost, "/v1/friend",
		FriendRequest{A: "alice", B: "bob", Weight: 0.9, LSN: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("stamped friend: status %d body %s", rec.Code, rec.Body)
	}
	var ack AppliedResponse
	decode(t, rec, &ack)
	if ack.AppliedLSN != 1 {
		t.Fatalf("applied_lsn = %d, want 1", ack.AppliedLSN)
	}

	// Duplicate delivery: idempotent, same cursor, no duplicate state.
	rec = doJSON(t, s, http.MethodPost, "/v1/friend",
		FriendRequest{A: "alice", B: "bob", Weight: 0.9, LSN: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("redelivered friend: status %d body %s", rec.Code, rec.Body)
	}
	decode(t, rec, &ack)
	if ack.AppliedLSN != 1 {
		t.Fatalf("applied_lsn after redelivery = %d, want 1", ack.AppliedLSN)
	}

	rec = doJSON(t, s, http.MethodPost, "/v1/tag",
		TagRequest{User: "bob", Item: "luigis", Tag: "pizza", LSN: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("stamped tag: status %d body %s", rec.Code, rec.Body)
	}
	decode(t, rec, &ack)
	if ack.AppliedLSN != 2 {
		t.Fatalf("applied_lsn = %d, want 2", ack.AppliedLSN)
	}

	// Gap: record 9 at cursor 2 answers 409 and changes nothing.
	rec = doJSON(t, s, http.MethodPost, "/v1/friend",
		FriendRequest{A: "x", B: "y", Weight: 0.5, LSN: 9})
	if rec.Code != http.StatusConflict {
		t.Fatalf("gap record: status %d, want 409; body %s", rec.Code, rec.Body)
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor after gap = %d, want 2", got)
	}

	// /healthz carries the cursor for replication-aware backends.
	rec = doJSON(t, s, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Applied-LSN"); got != "2" {
		t.Fatalf("X-Applied-LSN = %q, want \"2\"", got)
	}

	// Unstamped mutations keep the v1 wire byte-for-byte: 204, no body.
	rec = doJSON(t, s, http.MethodPost, "/v1/friend",
		FriendRequest{A: "carol", B: "dave", Weight: 0.7})
	if rec.Code != http.StatusNoContent || rec.Body.Len() != 0 {
		t.Fatalf("plain friend: status %d body %q, want bare 204", rec.Code, rec.Body)
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor after plain mutation = %d, want 2 (untouched)", got)
	}
}

// brokenLSNBackend deterministically rejects nothing: its stamped
// applies fail WITHOUT advancing the cursor — the shape of an internal
// failure (full disk, broken log), not a validation rejection.
type brokenLSNBackend struct{ noopReplica }

func (brokenLSNBackend) BefriendAt(lsn uint64, a, b string, weight float64) error {
	return errors.New("disk full")
}
func (brokenLSNBackend) TagAt(lsn uint64, user, item, tag string) error {
	return errors.New("disk full")
}

// TestStampedMutationInternalFailureIs500 pins the error split the
// replication protocol depends on: a stamped apply that fails while
// the cursor stays behind is an internal failure (500 — the sender
// must NOT count the record processed and will retry via catch-up),
// not a deterministic 400 rejection.
func TestStampedMutationInternalFailureIs500(t *testing.T) {
	s, err := New(brokenLSNBackend{})
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, s, http.MethodPost, "/v1/friend",
		FriendRequest{A: "a", B: "b", Weight: 0.5, LSN: 1})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("internal apply failure: status %d, want 500; body %s", rec.Code, rec.Body)
	}
	rec = doJSON(t, s, http.MethodPost, "/v1/tag",
		TagRequest{User: "u", Item: "i", Tag: "t", LSN: 1})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("internal apply failure: status %d, want 500; body %s", rec.Code, rec.Body)
	}
}

// TestStampedMutationDeterministicRejectionIs400 pins the other half:
// a rejection that advanced the cursor (a record every replica skips
// identically — here a self-edge on a real social backend) stays 400.
func TestStampedMutationDeterministicRejectionIs400(t *testing.T) {
	s, svc := newTestServer(t)
	rec := doJSON(t, s, http.MethodPost, "/v1/friend",
		FriendRequest{A: "x", B: "x", Weight: 0.5, LSN: 1})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("self-edge record: status %d, want 400; body %s", rec.Code, rec.Body)
	}
	if got := svc.AppliedLSN(); got != 1 {
		t.Fatalf("cursor = %d, want 1 (processed in lockstep)", got)
	}
}

// unavailableBackend fails every mutation with the unavailable class —
// the shape of a fleet front-end with no live replica.
type unavailableBackend struct{ noopBackend }

func (unavailableBackend) Befriend(a, b string, weight float64) error {
	return fmt.Errorf("%w: no live replica", search.ErrUnavailable)
}
func (unavailableBackend) Tag(user, item, tag string) error {
	return fmt.Errorf("%w: no live replica", search.ErrUnavailable)
}

// TestUnstampedMutationUnavailableIs503 pins the retry-later class on
// the plain mutation wire: a serving-substrate failure must not be
// answered as a 400 validation rejection.
func TestUnstampedMutationUnavailableIs503(t *testing.T) {
	s, err := New(unavailableBackend{})
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, s, http.MethodPost, "/v1/friend", FriendRequest{A: "a", B: "b", Weight: 0.5})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unavailable friend: status %d, want 503; body %s", rec.Code, rec.Body)
	}
	rec = doJSON(t, s, http.MethodPost, "/v1/tag", TagRequest{User: "u", Item: "i", Tag: "t"})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("unavailable tag: status %d, want 503; body %s", rec.Code, rec.Body)
	}
}

// TestReplogEndpointWithoutSource pins the 404 for backends that have
// no replication log (every non-front-end backend).
func TestReplogEndpointWithoutSource(t *testing.T) {
	s, _ := newTestServer(t)
	if rec := doJSON(t, s, http.MethodGet, "/v2/replog", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("/v2/replog on a replica backend: status %d, want 404", rec.Code)
	}
	if rec := doJSON(t, s, http.MethodPost, "/v2/replog", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v2/replog: status %d, want 405", rec.Code)
	}
}

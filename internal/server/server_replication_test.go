package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/search"
	"repro/internal/social"
)

// postRaw sends body to path verbatim (doJSON would quote a string).
func postRaw(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec
}

// applyPage posts records as one /v2/apply page.
func applyPage(t *testing.T, h http.Handler, records ...social.Mutation) *httptest.ResponseRecorder {
	t.Helper()
	return doJSON(t, h, http.MethodPost, "/v2/apply", ApplyRequest{Records: records})
}

func befriendAt(lsn uint64, a, b string, w float64) social.Mutation {
	return social.Mutation{Kind: social.KindBefriend, LSN: lsn, User: a, Friend: b, Weight: w}
}

func tagAt(lsn uint64, user, item, tag string) social.Mutation {
	return social.Mutation{Kind: social.KindTag, LSN: lsn, User: user, Item: item, Tag: tag}
}

// TestStampedMutations drives the replication wire, POST /v2/apply:
// in-order records apply and answer the cursor, duplicates are
// idempotent, a page that starts past the cursor answers 409, /healthz
// reports the cursor in X-Applied-LSN, and the /v1 mutations are plain
// writes only — "lsn" on them is an unknown field.
func TestStampedMutations(t *testing.T) {
	s, svc := newTestServer(t)

	rec := applyPage(t, s, befriendAt(1, "alice", "bob", 0.9))
	if rec.Code != http.StatusOK {
		t.Fatalf("befriend page: status %d body %s", rec.Code, rec.Body)
	}
	var ack AppliedResponse
	decode(t, rec, &ack)
	if ack.AppliedLSN != 1 || len(ack.Rejected) != 0 {
		t.Fatalf("ack = %+v, want cursor 1 and no rejections", ack)
	}

	// Redelivery overlapping new records: the duplicate is a no-op, the
	// rest of the page applies.
	rec = applyPage(t, s, befriendAt(1, "alice", "bob", 0.9), tagAt(2, "bob", "luigis", "pizza"))
	if rec.Code != http.StatusOK {
		t.Fatalf("overlapping page: status %d body %s", rec.Code, rec.Body)
	}
	decode(t, rec, &ack)
	if ack.AppliedLSN != 2 {
		t.Fatalf("applied_lsn = %d, want 2", ack.AppliedLSN)
	}

	// Gap: a page starting at 9 at cursor 2 answers 409 and changes
	// nothing.
	rec = applyPage(t, s, befriendAt(9, "x", "y", 0.5), befriendAt(10, "y", "z", 0.5))
	if rec.Code != http.StatusConflict {
		t.Fatalf("gap page: status %d, want 409; body %s", rec.Code, rec.Body)
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor after gap = %d, want 2", got)
	}
	for _, u := range svc.Users() {
		if u == "x" {
			t.Fatal("a gap page applied a record")
		}
	}

	// /healthz carries the cursor for replication-aware backends.
	rec = doJSON(t, s, http.MethodGet, "/healthz", nil)
	if got := rec.Header().Get("X-Applied-LSN"); rec.Code != http.StatusOK || got != "2" {
		t.Fatalf("healthz: status %d, X-Applied-LSN %q; want 200, \"2\"", rec.Code, got)
	}

	// /v1 mutations are plain writes: 204, no body, cursor untouched; a
	// stamped one is a 400 that applies nothing.
	rec = doJSON(t, s, http.MethodPost, "/v1/friend", FriendRequest{A: "carol", B: "dave", Weight: 0.7})
	if rec.Code != http.StatusNoContent || rec.Body.Len() != 0 {
		t.Fatalf("plain friend: status %d body %q, want bare 204", rec.Code, rec.Body)
	}
	for _, tc := range []struct{ path, body string }{
		{"/v1/friend", `{"a":"erin","b":"frank","weight":0.5,"lsn":3}`},
		{"/v1/tag", `{"user":"erin","item":"x","tag":"y","lsn":3}`},
	} {
		if rec := postRaw(s, tc.path, tc.body); rec.Code != http.StatusBadRequest {
			t.Fatalf("stamped %s: status %d, want 400 (unknown field)", tc.path, rec.Code)
		}
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor after /v1 writes = %d, want 2 (untouched)", got)
	}
}

// TestApplyRejectsMalformedPages: a page that is not a run of
// LSN-consecutive records within the bound is a 400 that applies
// nothing, not even its well-formed prefix.
func TestApplyRejectsMalformedPages(t *testing.T) {
	s, svc := newTestServer(t)
	tooMany := make([]social.Mutation, MaxReplogPageRecords+1)
	for i := range tooMany {
		tooMany[i] = social.Mutation{LSN: uint64(i + 1)}
	}
	for _, tc := range []struct{ name, body string }{
		{"bad JSON", `{"records":[`},
		{"not a page", `[{"lsn":1}]`},
		{"unknown field", `{"records":[{"lsn":1}],"from":1}`},
		{"unknown record field", `{"records":[{"lsn":1,"kind":"tag","user":"u","item":"i","tag":"t","who":"x"}]}`},
		{"unknown kind", `{"records":[{"lsn":1,"kind":"unfriend","user":"a","friend":"b"}]}`},
		{"numeric kind", `{"records":[{"lsn":1,"kind":1}]}`},
		{"no records", `{"records":[]}`},
		{"lsn 0", `{"records":[{"lsn":1},{"lsn":0}]}`},
		{"missing lsn", `{"records":[{"kind":"tag","user":"u","item":"i","tag":"t"}]}`},
		{"lsn gap inside", `{"records":[{"lsn":1},{"lsn":3}]}`},
		{"lsn backwards", `{"records":[{"lsn":2},{"lsn":1}]}`},
		{"trailing value", `{"records":[{"lsn":1}]}{}`},
	} {
		if rec := postRaw(s, "/v2/apply", tc.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400; body %s", tc.name, rec.Code, rec.Body)
		}
	}
	if rec := applyPage(t, s, tooMany...); rec.Code != http.StatusBadRequest {
		t.Errorf("%d records: status %d, want 400", len(tooMany), rec.Code)
	}
	if rec := doJSON(t, s, http.MethodGet, "/v2/apply", nil); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v2/apply: status %d, want 405", rec.Code)
	}
	if got := svc.AppliedLSN(); got != 0 || len(svc.Users()) != 0 {
		t.Fatalf("malformed pages moved the cursor to %d and made users %v", got, svc.Users())
	}
}

// cursorReplica is a Replica whose Apply fails at one LSN WITHOUT
// advancing its cursor — the shape of an internal failure (full disk,
// broken log), not a validation rejection.
type cursorReplica struct {
	noopReplica
	applied, failAt uint64
}

func (r *cursorReplica) Apply(m social.Mutation) error {
	if m.LSN == r.failAt {
		return errors.New("disk full")
	}
	r.applied = m.LSN
	return nil
}

func (r *cursorReplica) AppliedLSN() uint64 { return r.applied }

// TestStampedMutationInternalFailureIs500 pins the error split the
// replication protocol depends on: a record that fails while the
// cursor stays behind is an internal failure (500 — the sender must
// NOT count the page processed and retries through catch-up), not a
// deterministic rejection. The records before it are applied, it and
// the records after it are not.
func TestStampedMutationInternalFailureIs500(t *testing.T) {
	rep := &cursorReplica{failAt: 2}
	s, err := New(rep)
	if err != nil {
		t.Fatal(err)
	}
	rec := applyPage(t, s, befriendAt(1, "a", "b", 0.5), tagAt(2, "u", "i", "t"), social.Mutation{LSN: 3})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("internal apply failure: status %d, want 500; body %s", rec.Code, rec.Body)
	}
	if rep.applied != 1 {
		t.Fatalf("cursor = %d after a failure at lsn 2, want 1", rep.applied)
	}
}

// TestApplyDeterministicRejectionIsListed pins the other half: a
// rejection that advanced the cursor (a record every replica skips
// identically — here a self-edge in mid-page) is listed in the
// response, and the page goes on.
func TestApplyDeterministicRejectionIsListed(t *testing.T) {
	s, svc := newTestServer(t)
	rec := applyPage(t, s, befriendAt(1, "alice", "bob", 0.9), befriendAt(2, "x", "x", 0.5), tagAt(3, "bob", "luigis", "pizza"))
	if rec.Code != http.StatusOK {
		t.Fatalf("page with a self-edge: status %d, want 200; body %s", rec.Code, rec.Body)
	}
	var ack AppliedResponse
	decode(t, rec, &ack)
	if ack.AppliedLSN != 3 || len(ack.Rejected) != 1 || ack.Rejected[0].LSN != 2 || ack.Rejected[0].Error == "" {
		t.Fatalf("ack = %+v, want cursor 3 and lsn 2 rejected", ack)
	}
	if got := svc.AppliedLSN(); got != 3 {
		t.Fatalf("cursor = %d, want 3 (processed in lockstep)", got)
	}
	if got := fmt.Sprint(svc.Users()); got != "[alice bob]" {
		t.Fatalf("users = %s, want the records around the rejection applied", got)
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

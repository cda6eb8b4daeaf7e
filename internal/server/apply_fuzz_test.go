package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"repro/internal/social"
)

// preloadedReplica is a volatile replica at cursor 3: two records and
// a skip, so a fuzzed page can deduplicate, continue or gap.
func preloadedReplica(t *testing.T) *social.Service {
	t.Helper()
	svc, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []social.Mutation{befriendAt(1, "alice", "bob", 0.9), tagAt(2, "bob", "luigis", "pizza"), {LSN: 3}} {
		if err := svc.Apply(m); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

// stateOf is a service's replication cursor and its state in the form
// replicas exchange it, the snapshot stream.
func stateOf(t *testing.T, svc *social.Service) []byte {
	t.Helper()
	g, st, names, lsn, err := svc.SnapshotWithCursor()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := social.WriteSnapshotStream(&buf, g, st, names, lsn); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wellFormedPage decodes body as the apply wire defines it — one JSON
// object of known fields — and checks the page's shape: 1 to
// MaxReplogPageRecords records with positive, consecutive LSNs, each
// a befriend, a tag or a skip (no kind).
func wellFormedPage(body []byte) ([]social.Mutation, bool) {
	var req ApplyRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&req) != nil {
		return nil, false
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, false
	}
	recs := req.Records
	if len(recs) == 0 || len(recs) > MaxReplogPageRecords {
		return nil, false
	}
	for i, m := range recs {
		if m.LSN == 0 || i > 0 && m.LSN-recs[i-1].LSN != 1 {
			return nil, false
		}
		switch m.Kind {
		case "", social.KindBefriend, social.KindTag:
		default:
			return nil, false
		}
	}
	return recs, true
}

// FuzzApplyRequest sends arbitrary bodies to POST /v2/apply on a
// replica. No input panics; a malformed body is a 400 that changes
// neither the cursor nor the state; a well-formed page answers and
// leaves exactly what applying its records one by one through
// Service.Apply leaves — 409 when the first record is past the cursor,
// with nothing applied.
func FuzzApplyRequest(f *testing.F) {
	for _, seed := range []string{
		`{"records":[{"lsn":4,"kind":"befriend","user":"carol","friend":"alice","weight":0.5}]}`,
		`{"records":[{"lsn":4,"kind":"tag","user":"carol","item":"marios","tag":"pizza"},{"lsn":5}]}`,
		`{"records":[{"lsn":4}]}`,
		`{"records":[{"lsn":2,"kind":"tag","user":"x","item":"y","tag":"z"},{"lsn":3},{"lsn":4,"kind":"befriend","user":"carol","friend":"carol","weight":0.5}]}`,
		`{"records":[{"lsn":7,"kind":"tag","user":"x","item":"y","tag":"z"}]}`,
		`{"records":[{"lsn":4},{"lsn":6}]}`,
		`{"records":[{"lsn":4,"kind":"unfriend","user":"a","friend":"b"}]}`,
		`{"records":[{"lsn":0}]}`,
		`{"records":[]}`,
		`{"records":[{"lsn":4}]}]`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		svc := preloadedReplica(t)
		srv, err := New(svc)
		if err != nil {
			t.Fatal(err)
		}
		before := stateOf(t, svc)
		rec := postRaw(srv, "/v2/apply", string(body))
		page, ok := wellFormedPage(body)
		if !ok {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("malformed body %q: status %d, want 400", body, rec.Code)
			}
			if !bytes.Equal(stateOf(t, svc), before) {
				t.Fatalf("malformed body %q changed the replica", body)
			}
			return
		}
		ref := preloadedReplica(t)
		want := http.StatusOK
		for _, m := range page {
			if err := ref.Apply(m); errors.Is(err, social.ErrReplicationGap) {
				want = http.StatusConflict
				break
			}
		}
		if rec.Code != want {
			t.Fatalf("page %q: status %d, want %d; body %s", body, rec.Code, want, rec.Body)
		}
		if !bytes.Equal(stateOf(t, svc), stateOf(t, ref)) {
			t.Fatalf("page %q: state differs from applying its records one by one", body)
		}
	})
}

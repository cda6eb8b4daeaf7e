package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/search"
)

func TestV2SearchExplain(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)

	body := map[string]interface{}{
		"seeker": "alice", "tags": []string{"pizza"}, "k": 3, "explain": true,
	}
	// Twice: the second answer must come from a cached horizon.
	var resp V2SearchResponse
	for rep := 0; rep < 2; rep++ {
		rec := doJSON(t, s, http.MethodPost, "/v2/search", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("rep %d: status %d body %s", rep, rec.Code, rec.Body)
		}
		resp = V2SearchResponse{}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
	}
	if len(resp.Results) == 0 || resp.Results[0].Item != "luigis" {
		t.Fatalf("results = %+v", resp.Results)
	}
	ex := resp.Explain
	if ex == nil {
		t.Fatal("explain requested but absent")
	}
	if ex.Algorithm != "SocialMerge" {
		t.Errorf("algorithm = %q, want SocialMerge", ex.Algorithm)
	}
	if ex.Mode != "auto" {
		t.Errorf("mode = %q, want auto", ex.Mode)
	}
	if !ex.Exact {
		t.Error("auto mode answer on an unbounded horizon is not exact")
	}
	if ex.HorizonUsers == 0 {
		t.Error("explain reports no horizon size")
	}
	if !ex.CacheHit {
		t.Error("second identical query missed the seeker cache")
	}
	if ex.ScoreBound <= 0 {
		t.Errorf("score bound = %g, want > 0", ex.ScoreBound)
	}
	if ex.UsersSettled == 0 {
		t.Error("explain reports no settled users")
	}

	// Without explain the field is omitted entirely.
	rec := doJSON(t, s, http.MethodPost, "/v2/search",
		map[string]interface{}{"seeker": "alice", "tags": []string{"pizza"}})
	if strings.Contains(rec.Body.String(), "explain") {
		t.Fatalf("unexplained response leaks explain: %s", rec.Body)
	}
}

func TestV2SearchKnobs(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)

	// offset pages past the first result.
	full := doJSON(t, s, http.MethodPost, "/v2/search",
		map[string]interface{}{"seeker": "alice", "tags": []string{"pizza"}, "k": 2})
	paged := doJSON(t, s, http.MethodPost, "/v2/search",
		map[string]interface{}{"seeker": "alice", "tags": []string{"pizza"}, "k": 1, "offset": 1})
	var fr, pr V2SearchResponse
	json.Unmarshal(full.Body.Bytes(), &fr)
	json.Unmarshal(paged.Body.Bytes(), &pr)
	if len(fr.Results) != 2 || len(pr.Results) != 1 || pr.Results[0] != fr.Results[1] {
		t.Fatalf("offset paging: full %+v paged %+v", fr.Results, pr.Results)
	}

	// min_score filters the weak tail.
	minned := doJSON(t, s, http.MethodPost, "/v2/search", map[string]interface{}{
		"seeker": "alice", "tags": []string{"pizza"}, "k": 5,
		"min_score": fr.Results[0].Score,
	})
	var mr V2SearchResponse
	json.Unmarshal(minned.Body.Bytes(), &mr)
	if len(mr.Results) != 1 || mr.Results[0] != fr.Results[0] {
		t.Fatalf("min_score filter: %+v", mr.Results)
	}

	// Per-query beta: β=0 is pure-global scoring, reported in explain.
	rec := doJSON(t, s, http.MethodPost, "/v2/search", map[string]interface{}{
		"seeker": "alice", "tags": []string{"pizza"}, "k": 3,
		"beta": 0.0, "explain": true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("beta=0: %d %s", rec.Code, rec.Body)
	}
	var gr V2SearchResponse
	json.Unmarshal(rec.Body.Bytes(), &gr)
	if gr.Explain == nil || gr.Explain.Beta != 0 || len(gr.Results) == 0 {
		t.Fatalf("beta=0: results %+v explain %+v", gr.Results, gr.Explain)
	}
}

// TestV2AlgHintRejected: serving does not plan, so /v2 has no
// alg_hint; a request that sends one is a 400 that names the field,
// single and batched.
func TestV2AlgHintRejected(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	for _, c := range []struct{ path, body string }{
		{"/v2/search", `{"seeker":"alice","tags":["pizza"],"alg_hint":"SocialMerge"}`},
		{"/v2/search/batch", `{"queries":[{"seeker":"alice","tags":["pizza"],"alg_hint":"SocialMerge"}]}`},
	} {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "alg_hint") {
			t.Errorf("%s with alg_hint: status %d body %s, want 400 naming alg_hint", c.path, rec.Code, rec.Body)
		}
	}
}

func TestV2ClientErrors(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	cases := []struct {
		name string
		body string
	}{
		{"bad json", "{"},
		{"unknown field", `{"seeker":"alice","tags":["pizza"],"bogus":1}`},
		{"missing seeker", `{"tags":["pizza"]}`},
		{"missing tags", `{"seeker":"alice"}`},
		{"negative k", `{"seeker":"alice","tags":["pizza"],"k":-1}`},
		{"bad mode", `{"seeker":"alice","tags":["pizza"],"mode":"fast"}`},
		{"bad beta", `{"seeker":"alice","tags":["pizza"],"beta":1.5}`},
		{"negative offset", `{"seeker":"alice","tags":["pizza"],"offset":-1}`},
		{"unknown seeker", `{"seeker":"nobody","tags":["pizza"]}`},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/v2/search", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, rec.Code, rec.Body)
		}
	}
	// k=0 is not an error on v2 either: the central default applies.
	rec := doJSON(t, s, http.MethodPost, "/v2/search",
		map[string]interface{}{"seeker": "alice", "tags": []string{"pizza"}, "k": 0})
	if rec.Code != http.StatusOK {
		t.Fatalf("k=0: status %d body %s", rec.Code, rec.Body)
	}
}

func TestV2Batch(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	body := map[string]interface{}{
		"queries": []map[string]interface{}{
			{"seeker": "alice", "tags": []string{"pizza"}, "k": 2, "explain": true},
			{"seeker": "nobody", "tags": []string{"pizza"}},
			{"seeker": "alice", "tags": []string{"pizza"}, "mode": "nonsense"},
			{"seeker": "bob", "tags": []string{"italian"}, "mode": "exact"},
		},
	}
	rec := doJSON(t, s, http.MethodPost, "/v2/search/batch", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	var resp V2BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("entries = %d", len(resp.Results))
	}
	if len(resp.Results[0].Results) == 0 || resp.Results[0].Explain == nil {
		t.Fatalf("entry 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || resp.Results[2].Error == "" {
		t.Fatalf("entries 1/2 should fail: %+v / %+v", resp.Results[1], resp.Results[2])
	}
	if resp.Results[3].Error != "" {
		t.Fatalf("entry 3: %+v", resp.Results[3])
	}
	// Envelope checks (TestBatchClientErrors has the full set).
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{"queries":[]}`},
		{"missing", `{}`},
	} {
		req := httptest.NewRequest(http.MethodPost, "/v2/search/batch", strings.NewReader(tc.body))
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		if rr.Code != http.StatusBadRequest {
			t.Errorf("%s envelope: %d", tc.name, rr.Code)
		}
	}
}

// TestCancelledRequestAborts: a request whose context is already
// cancelled is answered with 499 and no JSON body.
func TestCancelledRequestAborts(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest(http.MethodPost, "/v2/search",
		strings.NewReader(`{"seeker":"alice","tags":["pizza"]}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want %d (body %s)", rec.Code, StatusClientClosedRequest, rec.Body)
	}
}

// TestBackendIsCanonicalSearcher: the server accepts any
// search.Searcher-based backend; a stub proves the interface is the
// whole query contract (no legacy positional methods required).
func TestBackendIsCanonicalSearcher(t *testing.T) {
	var b Backend = stubBackend{}
	s, err := New(b)
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "x", Tags: []string{"y"}})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "stub-item") {
		t.Fatalf("stub backend: %d %s", rec.Code, rec.Body)
	}
}

type stubBackend struct{ noopBackend }

func (stubBackend) Do(ctx context.Context, req search.Request) (search.Response, error) {
	if err := req.Normalize(); err != nil {
		return search.Response{}, err
	}
	return search.Response{Results: []search.Result{{Item: "stub-item", Score: 1}}}, nil
}

func (s stubBackend) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	out := make([]search.BatchResult, len(reqs))
	for i := range reqs {
		resp, err := s.Do(ctx, reqs[i])
		out[i] = search.BatchResult{Response: resp, Err: err}
	}
	return out
}

// TestBackendFailureIs500: an error the backend reports that is neither
// a request-content problem nor a cancellation — a disk failure, an
// internal inconsistency — maps to 500, not 400.
func TestBackendFailureIs500(t *testing.T) {
	s, err := New(brokenBackend{})
	if err != nil {
		t.Fatal(err)
	}
	rec := doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "x", Tags: []string{"y"}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("backend failure: status %d, want 500 (body %s)", rec.Code, rec.Body)
	}
}

type brokenBackend struct{ stubBackend }

func (brokenBackend) Do(ctx context.Context, req search.Request) (search.Response, error) {
	return search.Response{}, errors.New("wal: disk on fire")
}

// TestV2CacheKnobs covers the per-query cache controls: no_cache
// bypasses the seeker cache (never a hit, never warms it) and a bad
// max_cache_age_ms is a client error.
func TestV2CacheKnobs(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)

	body := map[string]interface{}{
		"seeker": "alice", "tags": []string{"pizza"}, "k": 3,
		"no_cache": true, "explain": true,
	}
	var resp V2SearchResponse
	for rep := 0; rep < 2; rep++ {
		rec := doJSON(t, s, http.MethodPost, "/v2/search", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("rep %d: status %d body %s", rep, rec.Code, rec.Body)
		}
		resp = V2SearchResponse{}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Explain == nil || resp.Explain.CacheHit {
			t.Fatalf("rep %d: no_cache query hit the cache: %+v", rep, resp.Explain)
		}
	}
	if len(resp.Results) == 0 || resp.Results[0].Item != "luigis" {
		t.Fatalf("results = %+v", resp.Results)
	}

	// An age-bounded query is accepted and still answers correctly.
	rec := doJSON(t, s, http.MethodPost, "/v2/search", map[string]interface{}{
		"seeker": "alice", "tags": []string{"pizza"}, "k": 3, "max_cache_age_ms": 60000,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("max_cache_age_ms request: status %d body %s", rec.Code, rec.Body)
	}

	rec = doJSON(t, s, http.MethodPost, "/v2/search", map[string]interface{}{
		"seeker": "alice", "tags": []string{"pizza"}, "k": 3, "max_cache_age_ms": -1,
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative max_cache_age_ms: status %d, want 400", rec.Code)
	}
}

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/social"
)

func newTestServer(t *testing.T) (*Server, *social.Service) {
	t.Helper()
	cfg := social.DefaultServiceConfig()
	cfg.AutoCompactEvery = 0 // compact on every write: reads always current
	svc, err := social.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	return s, svc
}

func doJSON(t *testing.T, h http.Handler, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func seedHTTP(t *testing.T, s *Server) {
	t.Helper()
	for _, m := range []FriendRequest{
		{A: "alice", B: "bob", Weight: 0.9},
		{A: "bob", B: "carol", Weight: 0.8},
	} {
		if rec := doJSON(t, s, http.MethodPost, "/v1/friend", m); rec.Code != http.StatusNoContent {
			t.Fatalf("friend %+v: status %d body %s", m, rec.Code, rec.Body)
		}
	}
	for _, m := range []TagRequest{
		{User: "bob", Item: "luigis", Tag: "pizza"},
		{User: "bob", Item: "luigis", Tag: "italian"},
		{User: "carol", Item: "marios", Tag: "pizza"},
	} {
		if rec := doJSON(t, s, http.MethodPost, "/v1/tag", m); rec.Code != http.StatusNoContent {
			t.Fatalf("tag %+v: status %d body %s", m, rec.Code, rec.Body)
		}
	}
}

func TestNewRejectsNilBackend(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil backend accepted")
	}
}

func TestEndToEndFlow(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)

	rec := doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "alice", Tags: []string{"pizza"}, K: 2})
	if rec.Code != http.StatusOK {
		t.Fatalf("search: status %d body %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var resp V2SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0].Item != "luigis" {
		t.Fatalf("results = %+v, want luigis first", resp.Results)
	}

	rec = doJSON(t, s, http.MethodGet, "/v1/users", nil)
	var users map[string][]string
	if err := json.Unmarshal(rec.Body.Bytes(), &users); err != nil {
		t.Fatal(err)
	}
	if len(users["users"]) != 3 {
		t.Fatalf("users = %v", users)
	}

	rec = doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "\"Users\":3") {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}

	rec = doJSON(t, s, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
}

func TestSearchMultiTag(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	// A comma-joined tags entry and separate entries answer alike,
	// whitespace is trimmed, and the default k applies.
	rec := doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "alice", Tags: []string{"pizza, italian"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	var a V2SearchResponse
	json.Unmarshal(rec.Body.Bytes(), &a)
	rec = doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "alice", Tags: []string{"pizza", "italian"}})
	var b V2SearchResponse
	json.Unmarshal(rec.Body.Bytes(), &b)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("comma form %+v != repeated form %+v", a, b)
	}
	if len(a.Results) == 0 || a.Results[0].Item != "luigis" {
		t.Fatalf("multi-tag results = %+v", a.Results)
	}
}

func TestClientErrors(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"friend wrong method", http.MethodGet, "/v1/friend", "", http.StatusMethodNotAllowed},
		{"tag wrong method", http.MethodGet, "/v1/tag", "", http.StatusMethodNotAllowed},
		{"search wrong method", http.MethodGet, "/v2/search", "", http.StatusMethodNotAllowed},
		{"friend bad json", http.MethodPost, "/v1/friend", "{", http.StatusBadRequest},
		{"friend unknown field", http.MethodPost, "/v1/friend", `{"a":"x","b":"y","weight":0.5,"extra":1}`, http.StatusBadRequest},
		{"friend trailing garbage", http.MethodPost, "/v1/friend", `{"a":"x","b":"y","weight":0.5}{}`, http.StatusBadRequest},
		{"friend bad weight", http.MethodPost, "/v1/friend", `{"a":"x","b":"y","weight":7}`, http.StatusBadRequest},
		{"tag empty name", http.MethodPost, "/v1/tag", `{"user":"","item":"i","tag":"t"}`, http.StatusBadRequest},
		{"search blank tags", http.MethodPost, "/v2/search", `{"seeker":"alice","tags":[", ,"]}`, http.StatusBadRequest},
		{"search k not a number", http.MethodPost, "/v2/search", `{"seeker":"alice","tags":["pizza"],"k":"zero"}`, http.StatusBadRequest},
		{"search unknown tag", http.MethodPost, "/v2/search", `{"seeker":"alice","tags":["quantum"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body)
		}
		if tc.want == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "error") {
			t.Errorf("%s: no error body: %s", tc.name, rec.Body)
		}
	}
}

func TestDurableBackend(t *testing.T) {
	svc, err := durable.Open(t.TempDir(), durable.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	seedHTTP(t, s)
	rec := doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "alice", Tags: []string{"pizza"}, K: 1})
	if rec.Code != http.StatusOK {
		t.Fatalf("search on durable backend: %d %s", rec.Code, rec.Body)
	}
	// Durable stats include the durability counters.
	rec = doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "LogSegments") {
		t.Fatalf("durable stats: %d %s", rec.Code, rec.Body)
	}
}

func TestEmptySearchReturnsEmptyArrayNotNull(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	// dave exists after this tag but has no friends: result may be empty
	// once none of his ball tagged anything.
	doJSON(t, s, http.MethodPost, "/v1/tag", TagRequest{User: "dave", Item: "thing", Tag: "pizza"})
	rec := doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "dave", Tags: []string{"italian"}, K: 3})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"results":[]`) {
		t.Fatalf("empty search body = %s, want empty array", rec.Body)
	}
}

func TestConcurrentRequests(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	var wg sync.WaitGroup
	errs := make(chan string, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if i%3 == 0 {
					rec := doJSON(t, s, http.MethodPost, "/v1/tag",
						TagRequest{User: fmt.Sprintf("w%d", id), Item: fmt.Sprintf("item%d-%d", id, i), Tag: "pizza"})
					if rec.Code != http.StatusNoContent {
						errs <- fmt.Sprintf("tag: %d %s", rec.Code, rec.Body)
						return
					}
				} else {
					rec := doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "alice", Tags: []string{"pizza"}, K: 3})
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("search: %d %s", rec.Code, rec.Body)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestListenAndServeGracefulShutdown(t *testing.T) {
	s, _ := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.ListenAndServe(ctx, "127.0.0.1:0", time.Second) }()
	// Give the listener a moment, then cancel; shutdown must complete
	// promptly and without error.
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}

func TestSearchBatchEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	body := map[string]interface{}{
		"queries": []map[string]interface{}{
			{"seeker": "alice", "tags": []string{"pizza"}, "k": 2},
			{"seeker": "nobody", "tags": []string{"pizza"}},
			{"seeker": "alice", "tags": []string{" pizza ", ""}},     // normalized like a single query
			{"seeker": "carol", "tags": []string{"italian"}, "k": 3}, // empty but valid answer
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
		t.Fatalf("results = %+v", resp.Results)
	}
	if len(resp.Results[0].Results) != 2 || resp.Results[0].Results[0].Item != "luigis" {
		t.Fatalf("query 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" || resp.Results[1].Results != nil {
		t.Fatalf("query 1 (unknown seeker): %+v", resp.Results[1])
	}
	if resp.Results[2].Error != "" || len(resp.Results[2].Results) == 0 {
		t.Fatalf("query 2 (tag normalization): %+v", resp.Results[2])
	}
	if resp.Results[3].Error != "" {
		t.Fatalf("query 3: %+v", resp.Results[3])
	}
	// Batch answer 0 must match the single-query endpoint.
	rec = doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "alice", Tags: []string{"pizza"}, K: 2})
	var single V2SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(single.Results) != fmt.Sprint(resp.Results[0].Results) {
		t.Fatalf("batch %+v != single %+v", resp.Results[0].Results, single.Results)
	}
	// A success entry with no matches encodes as an empty array, never
	// null (dave is isolated, so his italian search matches nothing).
	doJSON(t, s, http.MethodPost, "/v1/tag", TagRequest{User: "dave", Item: "thing", Tag: "pizza"})
	rec = doJSON(t, s, http.MethodPost, "/v2/search/batch", map[string]interface{}{
		"queries": []map[string]interface{}{{"seeker": "dave", "tags": []string{"italian"}}},
	})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"results":[]`) {
		t.Fatalf("empty batch entry: %d %s", rec.Code, rec.Body)
	}
}

func TestSearchBatchCacheCountersOnStats(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	body := map[string]interface{}{
		"queries": []map[string]interface{}{
			{"seeker": "alice", "tags": []string{"pizza"}},
			{"seeker": "alice", "tags": []string{"italian"}},
			{"seeker": "alice", "tags": []string{"pizza"}, "k": 1},
		},
	}
	if rec := doJSON(t, s, http.MethodPost, "/v2/search/batch", body); rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body)
	}
	rec := doJSON(t, s, http.MethodGet, "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var stats struct {
		SeekerCache struct {
			Hits, Misses, Invalidations, Evictions int64
		}
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.SeekerCache.Misses == 0 || stats.SeekerCache.Hits == 0 {
		t.Fatalf("cache counters not exposed: %s", rec.Body)
	}
}

func TestBatchClientErrors(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	tooMany := `{"queries":[` + strings.Repeat(`{"seeker":"alice","tags":["pizza"]},`, MaxBatchQueries) +
		`{"seeker":"alice","tags":["pizza"]}]}`
	oversized := `{"queries":[{"seeker":"` + strings.Repeat("x", MaxBodyBytes+1) + `","tags":["pizza"]}]}`
	cases := []struct {
		name   string
		method string
		body   string
		want   int
	}{
		{"wrong method", http.MethodGet, "", http.StatusMethodNotAllowed},
		{"bad json", http.MethodPost, "{", http.StatusBadRequest},
		{"unknown field", http.MethodPost, `{"queries":[],"extra":1}`, http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, `{"queries":[{"seeker":"alice","tags":["pizza"]}]}{}`, http.StatusBadRequest},
		{"no queries key", http.MethodPost, `{}`, http.StatusBadRequest},
		{"empty queries", http.MethodPost, `{"queries":[]}`, http.StatusBadRequest},
		{"too many queries", http.MethodPost, tooMany, http.StatusBadRequest},
		{"oversized body", http.MethodPost, oversized, http.StatusBadRequest},
		{"queries wrong type", http.MethodPost, `{"queries":"alice"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(tc.method, "/v2/search/batch", strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %.120s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	// Per-query validation failures are NOT batch failures: the envelope
	// is fine, so the response is 200 with per-entry errors. An explicit
	// k of 0 is NOT an error: search.Request.Normalize substitutes the
	// default, the same policy as an absent k (negative k stays a
	// per-query error everywhere).
	rec := doJSON(t, s, http.MethodPost, "/v2/search/batch", map[string]interface{}{
		"queries": []map[string]interface{}{
			{"seeker": "", "tags": []string{"pizza"}},
			{"seeker": "alice"},
			{"seeker": "alice", "tags": []string{"pizza"}, "k": -1},
			{"seeker": "alice", "tags": []string{"pizza"}, "k": 0}, // defaulted, not rejected
			{"seeker": "alice", "tags": []string{"pizza"}},
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed batch: status %d body %s", rec.Code, rec.Body)
	}
	var resp V2BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if resp.Results[i].Error == "" {
			t.Errorf("query %d: expected per-query error, got %+v", i, resp.Results[i])
		}
	}
	for i := 3; i < 5; i++ {
		if resp.Results[i].Error != "" || len(resp.Results[i].Results) == 0 {
			t.Errorf("query %d: %+v", i, resp.Results[i])
		}
	}
}

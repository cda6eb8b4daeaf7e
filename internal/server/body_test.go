package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/social"
)

// decodeWith runs one decode of a search body through a target: the
// batch body or the single-query body.
func decodeWith(b *searchBody, batch bool, body string) (interface{}, error) {
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
	w := httptest.NewRecorder()
	if batch {
		err := b.decodeBatch(w, r)
		return &b.batch, err
	}
	err := b.decodeQuery(w, r)
	return &b.query, err
}

// decodeFresh is decodeBody into a zero value: what a handler without
// a pooled target decodes.
func decodeFresh(batch bool, body string) (interface{}, error) {
	r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
	w := httptest.NewRecorder()
	var v interface{} = new(V2Query)
	if batch {
		v = new(V2BatchRequest)
	}
	return v, decodeBody(w, r, v)
}

// FuzzSearchBodyReuse: a pooled target that decoded body a, and was
// reset as release resets it, decodes body b to exactly the value and
// the error text a fresh decodeBody of b gives, whichever of the two
// bodies (batch, single query) each decode reads.
func FuzzSearchBodyReuse(f *testing.F) {
	every := `{"seeker":"alice","tags":["pizza","italian"],"k":5,"beta":0.5,"mode":"exact","min_score":0.1,` +
		`"offset":2,"no_cache":true,"max_cache_age_ms":100,"explain":true}`
	overCap := `{"queries":[` + strings.Repeat(`{"seeker":"a","tags":["x"]},`, MaxBatchQueries) + `{"seeker":"a","tags":["x"]}]}`
	manyTags := `{"seeker":"a","tags":["t` + strings.Repeat(`","t`, search.MaxTags+1) + `"]}`
	for _, seed := range [][2]string{
		{`{"queries":[` + every + `,` + every + `]}`, `{"queries":[{},{}]}`},
		{every, `{}`},
		{`{"queries":[{"seeker":"a","tags":["x","y","z"]}]}`, `{"queries":[{"seeker":"a","tags":null}]}`},
		{`{"seeker":"a","tags":["x","y"]}`, `{"seeker":"a","tags":null}`},
		{`{"queries":[` + every + `]}`, `{"queries":[{"seeker":"a","tags":["x"],"bogus":1}]}`},
		{every, `{"seeker":"a","tags":["x"],"bogus":1}`},
		{`{"queries":[` + every + `]}`, overCap},
		{overCap, `{"queries":[{"seeker":"a"}]}`},
		{manyTags, `{"seeker":"a","tags":[]}`},
		{`{"queries":[{"tags":["x"]},{"tags":["y"]}]}`, `{"queries":[{"tags":["z"]}],"queries":[]}`},
		{`{"queries":[{"seeker":"a","tags":["x"]}]}`, `{}`},
		{`{"queries":[{"seeker":"a","tags":["x"]}]}`, `{"queries":[{"seeker":"a","tags":["x"]}`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		var body searchBody
		for _, first := range []bool{true, false} {
			for _, second := range []bool{true, false} {
				decodeWith(&body, first, a)
				body.reset()
				got, gotErr := decodeWith(&body, second, b)
				want, wantErr := decodeFresh(second, b)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("after %q, %q: error %v, a fresh decode's %v", a, b, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("after %q, %q:\n got %#v\nwant %#v", a, b, got, want)
				}
				body.reset()
			}
		}
	})
}

// TestSlowQueryKeepsItsTags: the slow-query log keeps a query's tags
// after later requests decode into the pooled target that held them.
func TestSlowQueryKeepsItsTags(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	tr := obs.NewTracer(obs.Config{SlowThreshold: time.Nanosecond})
	s.SetTracer(tr)
	for _, tags := range [][]string{{"pizza"}, {"italian"}, {"pizza", "italian"}} {
		rec := doJSON(t, s, http.MethodPost, "/v2/search", map[string]interface{}{"seeker": "alice", "tags": tags})
		if rec.Code != http.StatusOK {
			t.Fatalf("%v: status %d body %s", tags, rec.Code, rec.Body)
		}
	}
	for i := 0; i < 50; i++ {
		doJSON(t, s, http.MethodPost, "/v2/search/batch", map[string]interface{}{
			"queries": []map[string]interface{}{{"seeker": "bob", "tags": []string{"zzz", "yyy"}}},
		})
	}
	var got [][]string
	for _, q := range tr.SlowQueries() {
		got = append(got, q.Tags)
	}
	slices.Reverse(got) // SlowQueries lists the newest first
	want := [][]string{{"pizza"}, {"italian"}, {"pizza", "italian"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slow-query tags %q, want %q", got, want)
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops
// the body, so a measurement sees the handler's allocations only.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// TestBatchDecodeAllocatesPerRequest: a /v2/search/batch request on a
// backend that answers nothing allocates, per query, only the strings
// encoding/json makes of the body — a seeker and a tag here. The decode
// target, the search requests, the routing of entries and the answer
// are per request: 64 queries cost 63 × 2 allocations more than one,
// plus at most 4 for the decoder's buffer, which grows with the body.
func TestBatchDecodeAllocatesPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s, err := New(noopBackend{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) float64 {
		qs := make([]string, n)
		for i := range qs {
			qs[i] = fmt.Sprintf(`{"seeker":"u%d","tags":["t%d"],"k":10}`, i, i)
		}
		body := `{"queries":[` + strings.Join(qs, ",") + `]}`
		w := &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(200, func() {
			s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/search/batch", strings.NewReader(body)))
			if w.code != 0 && w.code != http.StatusOK {
				t.Fatalf("%d queries: status %d", n, w.code)
			}
		})
	}
	one, many := allocs(1), allocs(64)
	if extra := many - one; extra > 63*2+4 {
		t.Fatalf("a 64-query batch allocates %v, one query %v: %v more, want at most %d (2 strings per query, 4 for the decoder's buffer)",
			many, one, extra, 63*2+4)
	}
}

// TestTooManyTagsIsCheap: a query naming all 6,000 tags of a corpus
// is rejected before any engine work: a 400 on /v2/search that
// allocates under 1 MB, body decode included, and an invalid entry in
// a batch.
func TestTooManyTagsIsCheap(t *testing.T) {
	cfg := social.DefaultServiceConfig()
	cfg.AutoCompactEvery = 1 << 30
	svc, err := social.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const tags = 6000
	names := make([]string, tags)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
		if err := svc.Tag("u0", fmt.Sprintf("i%d", i%40), names[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	s, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(map[string]interface{}{"seeker": "u0", "tags": names})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	req := httptest.NewRequest(http.MethodPost, "/v2/search", strings.NewReader(string(raw)))
	rec := httptest.NewRecorder()
	runtime.ReadMemStats(&before)
	s.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), fmt.Sprintf("more than %d distinct tags", search.MaxTags)) {
		t.Fatalf("%d tags: status %d body %s, want a 400 naming the cap", tags, rec.Code, rec.Body)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("%d tags: the rejection allocated %d bytes, want under 1 MB", tags, alloc)
	}

	rec = doJSON(t, s, http.MethodPost, "/v2/search/batch", map[string]interface{}{
		"queries": []map[string]interface{}{{"seeker": "u0", "tags": names}, {"seeker": "u0", "tags": names[:2]}},
	})
	var resp V2BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d body %.200s (%v)", rec.Code, rec.Body, err)
	}
	if e := resp.Results[0]; e.ErrorKind != ErrKindInvalid {
		t.Fatalf("batch entry over the cap: %+v, want error_kind %q", e, ErrKindInvalid)
	}
	if e := resp.Results[1]; e.Error != "" {
		t.Fatalf("batch entry under the cap: %+v", e)
	}
}

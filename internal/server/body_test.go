package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/social"
)

// errCut is the read error of a body cut by searchRequest.
var errCut = errors.New("body read failed")

// cutReader yields body's first n bytes, with errCut in the read that
// reaches n, and then errCut: a body whose read fails part-way, as
// http.MaxBytesReader fails past its limit.
type cutReader struct {
	body string
	n    int
}

func (c *cutReader) Read(p []byte) (int, error) {
	if c.n == 0 {
		return 0, errCut
	}
	k := copy(p, c.body[:c.n])
	c.body, c.n = c.body[k:], c.n-k
	if c.n == 0 {
		return k, errCut
	}
	return k, nil
}

// searchRequest is a POST of body declaring its length, whose read
// fails once cut bytes are read when 0 <= cut < len(body).
func searchRequest(body string, cut int) *http.Request {
	var rd io.Reader = strings.NewReader(body)
	if cut >= 0 && cut < len(body) {
		rd = &cutReader{body: body, n: cut}
	}
	r := httptest.NewRequest(http.MethodPost, "/", rd)
	r.ContentLength = int64(len(body))
	return r
}

// decodeWith runs one decode of a search request through a target:
// the batch body or the single-query body.
func decodeWith(b *searchBody, batch bool, r *http.Request) (interface{}, error) {
	err := b.decode(httptest.NewRecorder(), r, batch)
	if batch {
		return &b.batch, err
	}
	return &b.query, err
}

// decodeFresh is decodeBody into a zero value: what a handler without
// a pooled target decodes.
func decodeFresh(batch bool, r *http.Request) (interface{}, error) {
	var v interface{} = new(V2Query)
	if batch {
		v = new(V2BatchRequest)
	}
	return v, decodeBody(httptest.NewRecorder(), r, v)
}

// sameDecode fails t unless a decode gave the value and error text of
// a fresh decodeBody.
func sameDecode(t *testing.T, what string, got, want interface{}, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, a fresh decode's %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %#v\nwant %#v", what, got, want)
	}
}

// canonicalQuery and canonicalBatch are the bodies json.Marshal writes
// for the queries a front-end forwards, the shape the one pass reads;
// fleetbench's client writes canonicalQuery's shape byte for byte.
var (
	canonicalQuery = mustMarshal(V2Query{Seeker: "u17", Tags: []string{"t3", "t9"}, K: 10, Mode: "exact"})
	canonicalBatch = mustMarshal(V2BatchRequest{Queries: []V2Query{
		{Seeker: "u17", Tags: []string{"t3", "t9"}, K: 10, Mode: "exact"},
		{Seeker: "u2", Tags: []string{"t1"}},
		{Seeker: "u17", Tags: []string{"t9", "t9", "t4"}, K: 0, Mode: "approx"},
	}})
)

func mustMarshal(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// TestSearchRequestShapes: the one pass reads exactly json.Marshal's
// shape for a query that sets no option but k and mode, and leaves
// every other body to encoding/json.
func TestSearchRequestShapes(t *testing.T) {
	reads := func(batch bool, body string) bool {
		d := wireDecoder{s: body}
		if batch {
			return new(searchBody).readBatch(&d)
		}
		return new(searchBody).readQuery(&d)
	}
	for _, body := range []string{
		canonicalQuery,
		`{"seeker":"u17","tags":["t3"]}`,
		`{"seeker":"","tags":["t3"],"k":0}`,
		`{"seeker":"u17","tags":["t3"],"mode":"exact"}`,
		`{"seeker":"café","tags":["t3","日本"],"k":9223372036854775807,"mode":""}`,
	} {
		if !reads(false, body) || !reads(true, `{"queries":[`+body+`]}`) {
			t.Errorf("%s: not read in one pass", body)
		}
	}
	if !reads(true, canonicalBatch) {
		t.Errorf("%s: not read in one pass", canonicalBatch)
	}
	for _, body := range []string{
		`{"seeker":"u\u0031","tags":["t3"]}`,
		`{"Seeker":"u1","tags":["t3"]}`,
		`{"seeker":"u1","seeker":"u2","tags":["t3"]}`,
		`{"seeker":"u1","tags":["t3"],"k":1,"k":2}`,
		`{"seeker":"u1","tags":["t3"],"mode":"exact","k":1}`,
		`{"seeker": "u1","tags":["t3"]}`,
		`{"seeker":"u1","tags":["t3"]}` + "\n",
		`{"seeker":"u1","tags":["t3"],"k":1e1}`,
		`{"seeker":"u1","tags":["t3"],"k":-1}`,
		`{"seeker":"u1","tags":["t3"],"k":01}`,
		`{"seeker":"u1","tags":["t3"],"k":99999999999999999999}`,
		`{"seeker":"u1","tags":[]}`,
		`{"seeker":"u1","tags":null}`,
		`{"seeker":"u1","tags":["t3"],"beta":0.5}`,
		`{"seeker":"u1","tags":["t3"]}{}`,
		"{\"seeker\":\"\xff\",\"tags\":[\"t3\"]}",
		"{\"seeker\":\"u1\",\"tags\":[\"\t\"]}",
	} {
		if reads(false, body) || reads(true, `{"queries":[`+body+`]}`) {
			t.Errorf("%s: read in one pass", body)
		}
	}
	for _, body := range []string{`{"queries":[]}`, `{"queries":[` + canonicalQuery + `,]}`, canonicalBatch + " "} {
		if reads(true, body) {
			t.Errorf("%s: read in one pass", body)
		}
	}
}

// FuzzSearchRequestWire holds the one-pass request reader to
// encoding/json: on both routes, for any body, read whole or failing
// after cut bytes, a fresh target decodes to the value and the error
// text decodeBody leaves in a zero value.
func FuzzSearchRequestWire(f *testing.F) {
	tags65 := `{"seeker":"a","tags":["t` + strings.Repeat(`","t`, search.MaxTags) + `"],"k":10}`
	for _, seed := range []string{
		canonicalQuery,
		canonicalBatch,
		mustMarshal(V2Query{Seeker: "a", Tags: []string{"x"}, K: 5, MinScore: 0.5, Explain: true}),
		mustMarshal(V2Query{Seeker: "a<b", Tags: []string{"x&y"}}),
		`{"seeker":"u\u0031","tags":["t3"],"k":10}`,
		`{"SEEKER":"u1","tags":["t3"],"k":10}`,
		`{"seeker":"u1","tags":["t3"],"k":10,"k":11}`,
		`{"seeker":"u1", "tags":["t3"],"k":10}`,
		`{"seeker":"u1","tags":["t3"],"k":1e1}`,
		`{"seeker":"u1","tags":["t3"],"k":-1}`,
		`{"seeker":"u1","tags":["t3"],"k":0,"mode":"exact"}`,
		`{"seeker":"u1","tags":["t3"],"k":01}`,
		`{"seeker":"u1","tags":["t3"],"k":99999999999999999999}`,
		`{"seeker":"u1","tags":[],"k":10}`,
		`{"seeker":"u1","tags":null,"k":10}`,
		`{"seeker":"u1","tags":["t3"],"k":10} {}`,
		"{\"seeker\":\"u\xff\",\"tags\":[\"t3\"],\"k\":10}",
		tags65,
		`{"queries":[` + tags65 + `]}`,
		`{"queries":[` + canonicalQuery + `],"queries":[]}`,
		`{"queries":[]}`,
	} {
		f.Add(seed, -1)
		f.Add(seed, len(seed)/2)
		f.Add(`{"queries":[`+seed+`]}`, -1)
	}
	f.Fuzz(func(t *testing.T, body string, cut int) {
		for _, batch := range []bool{false, true} {
			b := new(searchBody)
			got, gotErr := decodeWith(b, batch, searchRequest(body, cut))
			want, wantErr := decodeFresh(batch, searchRequest(body, cut))
			sameDecode(t, fmt.Sprintf("%q cut at %d", body, cut), got, want, gotErr, wantErr)
			checkForwarded(t, b, body, gotErr)
		}
	})
}

// checkForwarded: what a front-end forwards of a decoded body is the
// body itself, and each query text of a batch the one pass read is
// that query's JSON: it decodes to the query.
func checkForwarded(t *testing.T, b *searchBody, body string, err error) {
	t.Helper()
	if err == nil && b.raw != body {
		t.Fatalf("%q decoded, but raw holds %q", body, b.raw)
	}
	if len(b.texts) == 0 {
		return
	}
	if err != nil || len(b.texts) != len(b.batch.Queries) {
		t.Fatalf("%q: %d query texts for %d queries (error %v)", body, len(b.texts), len(b.batch.Queries), err)
	}
	for i, text := range b.texts {
		var q V2Query
		if err := decodeJSON(strings.NewReader(text), &q); err != nil || !reflect.DeepEqual(q, b.batch.Queries[i]) {
			t.Fatalf("%q: query %d's text %q decodes to %#v (error %v), want %#v", body, i, text, q, err, b.batch.Queries[i])
		}
	}
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
		{canonicalBatch, canonicalQuery},
		{canonicalQuery, canonicalBatch},
		{every, canonicalQuery},
		{`{"queries":[` + every + `,` + every + `,` + every + `,` + every + `]}`, canonicalBatch},
		{canonicalBatch, `{"queries":[{"seeker":"a","tags":["x"]},{"seeker":"b"}]}`},
		{canonicalBatch, `{"queries":[` + canonicalQuery + `,` + canonicalQuery + `,{"seeker":"b","tags":["x"],"k":1e1}]}`},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		var body searchBody
		for _, first := range []bool{true, false} {
			for _, second := range []bool{true, false} {
				decodeWith(&body, first, searchRequest(a, -1))
				body.reset()
				got, gotErr := decodeWith(&body, second, searchRequest(b, -1))
				want, wantErr := decodeFresh(second, searchRequest(b, -1))
				sameDecode(t, fmt.Sprintf("after %q, %q", a, b), got, want, gotErr, wantErr)
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

// TestKeptStringsDoNotPinTheBody: what outlives a /v2/search request —
// the slow-query log's seeker and tags, and the seeker attribute of a
// sampled trace's social.execute span — holds copies, not substrings
// of the body copy the query was read from.
func TestKeptStringsDoNotPinTheBody(t *testing.T) {
	s, _ := newTestServer(t)
	seedHTTP(t, s)
	tr := obs.NewTracer(obs.Config{SampleEvery: 1, SlowThreshold: time.Nanosecond})
	s.SetTracer(tr)
	const body = `{"seeker":"alice","tags":["pizza","italian"],"k":3}`
	sb := new(searchBody)
	if err := sb.decode(httptest.NewRecorder(), searchRequest(body, -1), false); err != nil {
		t.Fatal(err)
	}
	// The one pass read the seeker from just past its key, so the body
	// copy starts len(`{"seeker":"`) bytes before it.
	start := uintptr(unsafe.Pointer(unsafe.StringData(sb.query.Seeker))) - uintptr(len(`{"seeker":"`))
	inBody := func(v string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(v)))
		return len(v) > 0 && start <= p && p < start+uintptr(len(body))
	}
	for _, tag := range sb.query.Tags {
		if !inBody(tag) {
			t.Fatalf("tag %q was not read from the body copy", tag)
		}
	}
	req, err := sb.query.request()
	if err != nil {
		t.Fatal(err)
	}
	ctx, rq := tr.StartRequest(context.Background(), "", http.MethodPost, "/v2/search")
	resp, err := s.backend.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	s.noteSlowQuery(ctx, req, &resp, time.Second)
	rq.Finish(http.StatusOK)
	sb.release()

	slow := tr.SlowQueries()
	if len(slow) != 1 || slow[0].Seeker != "alice" || !reflect.DeepEqual(slow[0].Tags, []string{"pizza", "italian"}) {
		t.Fatalf("slow-query log %+v", slow)
	}
	if inBody(slow[0].Seeker) {
		t.Errorf("the slow-query log's seeker points into the body")
	}
	for _, tag := range slow[0].Tags {
		if inBody(tag) {
			t.Errorf("the slow-query log's tag %q points into the body", tag)
		}
	}
	rec, ok := tr.TraceByID(rq.TraceID())
	if !ok {
		t.Fatal("the sampled trace was not recorded")
	}
	seekers := 0
	for _, sp := range rec.Spans {
		for _, a := range sp.Attrs {
			if a.Key == "seeker" {
				seekers++
				if inBody(a.Value) {
					t.Errorf("span %s: the seeker attribute points into the body", sp.Name)
				}
				if a.Value != "alice" {
					t.Errorf("span %s: seeker attribute %q, want alice", sp.Name, a.Value)
				}
			}
		}
	}
	if seekers == 0 {
		t.Fatalf("no span recorded the seeker: %+v", rec.Spans)
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
// backend that answers nothing allocates nothing per query. The body is
// copied once into a string its decoded strings are substrings of, and
// the decode target, the search requests, the routing of entries and
// the answer are per request: 64 queries in the shape json.Marshal
// writes cost at most 2 allocations more than one.
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
	if extra := many - one; extra > 2 {
		t.Fatalf("a 64-query batch allocates %v, one query %v: %v more, want at most 2", many, one, extra)
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

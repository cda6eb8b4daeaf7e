package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
)

// FuzzSearchWire holds the hand codec to encoding/json. body is
// arbitrary bytes for the decoders; gen drives a generator of answers
// and queries for the encoders. Four properties:
//   - the encoders' bytes equal json.Encoder's (answers) and
//     json.Marshal's (queries), and they fail exactly where it fails;
//   - the decoders never panic;
//   - whatever they accept, json.Unmarshal accepts into an equal value;
//   - they accept everything the encoders emit.
func FuzzSearchWire(f *testing.F) {
	for _, seed := range []struct {
		body string
		gen  []byte
	}{
		{`{"results":null}`, []byte{0, 0, 0}},
		{`{"results":[]}`, []byte{1, 1, 1}},
		{`{"results":[{"item":"a<b","score":1e-7},{"item":"c","score":0.25}],"spans":null}`,
			[]byte{6, 1, 1, 1, 2}},
		{` {"Results":[]} `, []byte{10, 3, 4, 5, 6, 7}},
		{`{"results":[{"item":"x","score":1},null],"newer":{"a":[1,"\u2028",true]}}`, []byte{14, 0x90, 'a', '<', 0xff, 8, 9}},
		{`{"results":[{"item":"x","score":1}],"results":[{"item":"y"}]}`, []byte{2, 2, 2, 2, 2}},
		{`{"results":[{"item":"café😀","score":-0}],"explain":{"mode":"exact","beta":0.5}}`, []byte{3, 3, 3}},
		{`{"results":[{"error":"query 0: bad","error_kind":"invalid"},{"results":[],"retry_after_ms":25},null,{"results":null}]}`,
			[]byte{2, 0, 7, 1, 12, 5, 1, 1, 3}},
		{`{"results":[{"results":[{"item":"a","score":1e21}],"explain":null}],"spans":[{"span_id":"1","name":"n","start":"2026-01-02T03:04:05Z","duration_ms":1.5}]}`,
			[]byte{0xff, 0xfe, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01}},
		{"{\"results\":[{\"item\":\"\xff\",\"score\":1E+2}]}", []byte{5, 0x85, '&', '\n', 0x1f, 0x7f, 0}},
		{`{"results":[{"item":"a","score":1.5e400}]}`, []byte{9, 10, 11, 12}},
		{`{"results":[{"retry_after_ms":1.0}]}`, []byte{4, 13, 14}},
	} {
		f.Add([]byte(seed.body), seed.gen)
	}
	f.Fuzz(func(t *testing.T, body, gen []byte) {
		checkDecoders(t, body, false)
		g := &wireGen{data: gen}
		single := V2SearchResponse{Results: g.results(), Explain: g.explain(), Spans: g.spans()}
		checkEncoded(t, "search response", &single, func(dst []byte) ([]byte, error) {
			return AppendSearchResponse(dst, &single)
		}, true)
		batch := V2BatchResponse{Spans: g.spans()}
		if n := int(g.byte() % 5); n > 0 {
			batch.Results = make([]V2BatchEntry, n-1)
			for i := range batch.Results {
				batch.Results[i] = V2BatchEntry{Results: g.results(), Explain: g.explain(), Error: g.str(), ErrorKind: g.str(), RetryAfterMS: g.int64()}
			}
		}
		checkEncoded(t, "batch response", &batch, func(dst []byte) ([]byte, error) {
			return AppendBatchResponse(dst, &batch)
		}, true)
		q := g.query()
		checkEncoded(t, "query", &q, func(dst []byte) ([]byte, error) { return AppendQuery(dst, &q) }, false)
		var br V2BatchRequest
		if n := int(g.byte() % 4); n > 0 {
			br.Queries = make([]V2Query, n-1)
			for i := range br.Queries {
				br.Queries[i] = g.query()
			}
		}
		checkEncoded(t, "batch request", &br, func(dst []byte) ([]byte, error) { return AppendBatchRequest(dst, &br) }, false)
	})
}

// checkEncoded compares the hand encoding of v with encoding/json's:
// json.Encoder's for an answer, which is then decoded back, and
// json.Marshal's for a query.
func checkEncoded(t *testing.T, what string, v interface{}, appendTo func([]byte) ([]byte, error), answer bool) {
	t.Helper()
	var want []byte
	var wantErr error
	if answer {
		var buf bytes.Buffer
		wantErr = json.NewEncoder(&buf).Encode(v)
		want = buf.Bytes()
	} else {
		want, wantErr = json.Marshal(v)
	}
	got, err := appendTo([]byte("prefix"))
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("%s: hand encoder error %v, encoding/json error %v", what, err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.HasPrefix(got, []byte("prefix")) || !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s: hand encoder wrote\n%q\nencoding/json wrote\n%q", what, got, want)
	}
	if answer {
		checkDecoders(t, want, true)
	}
}

// checkDecoders decodes body with both hand decoders and checks each
// acceptance against json.Unmarshal; mustAccept asks that the decoder
// for body's type accept it.
func checkDecoders(t *testing.T, body []byte, mustAccept bool) {
	t.Helper()
	var single, singleWant V2SearchResponse
	singleErr := DecodeSearchResponse(body, &single)
	if singleErr == nil {
		if err := json.Unmarshal(body, &singleWant); err != nil {
			t.Fatalf("search response decoder accepted %q, which json.Unmarshal rejects: %v", body, err)
		}
		if !reflect.DeepEqual(single, singleWant) {
			t.Fatalf("search response %q: hand decoder got %#v, json.Unmarshal %#v", body, single, singleWant)
		}
	}
	var batch, batchWant V2BatchResponse
	batchErr := DecodeBatchResponse(body, &batch)
	if batchErr == nil {
		if err := json.Unmarshal(body, &batchWant); err != nil {
			t.Fatalf("batch response decoder accepted %q, which json.Unmarshal rejects: %v", body, err)
		}
		if !reflect.DeepEqual(batch, batchWant) {
			t.Fatalf("batch response %q: hand decoder got %#v, json.Unmarshal %#v", body, batch, batchWant)
		}
	}
	if mustAccept && singleErr != nil && batchErr != nil {
		t.Fatalf("decoders rejected encoded answer %q: %v / %v", body, singleErr, batchErr)
	}
}

// wireGen builds wire values from fuzz bytes; past the end it reads
// zeros. A byte below 0x80 picks a value from a list of the inputs
// encoding/json treats specially, one above spends raw bytes.
type wireGen struct {
	data []byte
	i    int
}

var (
	genFloats = []float64{0, 1e-7, 0.25, 1e21, math.Copysign(0, -1), 9.999999e-7, 1e-6, 1e20,
		123456789.125, -5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1), 1.0 / 3}
	genStrings = []string{"", "<a&b>", "luigis", "\u2028\u2029", "\xff\xfe", "café", "\x00\x01\x1f\x7f",
		"\"\\/", "\b\f\n\r\t", "\U0001F600", "\xed\xa0\x80", "item-0042"}
)

func (g *wireGen) byte() byte {
	if g.i >= len(g.data) {
		return 0
	}
	b := g.data[g.i]
	g.i++
	return b
}

func (g *wireGen) uint64() uint64 {
	var b [8]byte
	for i := range b {
		b[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(b[:])
}

func (g *wireGen) int64() int64 {
	if b := g.byte(); b < 0x80 {
		return int64(b) - 8
	}
	return int64(g.uint64())
}

func (g *wireGen) float() float64 {
	if b := g.byte(); b < 0x80 {
		return genFloats[int(b)%len(genFloats)]
	}
	return math.Float64frombits(g.uint64())
}

func (g *wireGen) str() string {
	b := g.byte()
	if b < 0x80 {
		return genStrings[int(b)%len(genStrings)]
	}
	var s []byte
	for n := b & 15; n > 0; n-- {
		s = append(s, g.byte())
	}
	return string(s)
}

// results is nil, empty or up to six results.
func (g *wireGen) results() []search.Result {
	b := g.byte()
	switch b % 4 {
	case 0:
		return nil
	case 1:
		return []search.Result{}
	}
	rs := make([]search.Result, 1+int(b>>2)%6)
	for i := range rs {
		rs[i] = search.Result{Item: g.str(), Score: g.float()}
	}
	return rs
}

func (g *wireGen) explain() *search.Explain {
	if g.byte()%3 != 0 {
		return nil
	}
	return &search.Explain{
		Algorithm: g.str(), Mode: g.str(), Beta: g.float(), Exact: g.byte()&1 == 1,
		ScoreBound: g.float(), HorizonUsers: int(g.int64()), CacheHit: g.byte()&1 == 1,
		CacheGeneration: g.uint64(), UsersSettled: int(g.int64()),
		SequentialAccesses: g.int64(), RandomAccesses: g.int64(),
	}
}

func (g *wireGen) spans() []obs.SpanData {
	n := int(g.byte() % 4)
	if n == 0 {
		return nil
	}
	spans := make([]obs.SpanData, n-1)
	for i := range spans {
		spans[i] = obs.SpanData{
			SpanID: g.str(), ParentID: g.str(), Name: g.str(), Node: g.str(),
			Start:      time.Unix(int64(g.uint64()%(1<<34)), int64(g.uint64()%1e9)).UTC(),
			DurationMS: g.float(),
		}
		if g.byte()&1 == 1 {
			spans[i].Attrs = []obs.Attr{{Key: g.str(), Value: g.str()}}
		}
	}
	return spans
}

func (g *wireGen) query() V2Query {
	q := V2Query{Seeker: g.str(), K: int(g.int64()), Mode: g.str(), MinScore: g.float(),
		Offset: int(g.int64()), NoCache: g.byte()&1 == 1, MaxCacheAgeMS: g.int64(), Explain: g.byte()&1 == 1}
	if n := int(g.byte() % 4); n > 0 {
		q.Tags = make([]string, n-1)
		for i := range q.Tags {
			q.Tags[i] = g.str()
		}
	}
	if g.byte()&1 == 1 {
		beta := g.float()
		q.Beta = &beta
	}
	return q
}

// TestSearchWireRejects: inputs json.Unmarshal would read differently,
// or not at all, are refused rather than guessed at.
func TestSearchWireRejects(t *testing.T) {
	for _, body := range []string{
		``, `null`, `[]`, `{"results":[]}x`, "{\"results\":[]}\x00", `{"results":[],}`, `{"results":[{"item":"a","score":1,}]}`,
		`{"Results":[]}`, `{"results":[],"results":[]}`, `{"results":[{"item":"a","item":"b"}]}`,
		`{"results":[{"item":"a","score":1e400}]}`, `{"results":[{"item":"a","score":01}]}`,
		`{"results":[{"item":"a","score":"1"}]}`, "{\"results\":[{\"item\":\"a\x01\"}]}", `{"results":[{"item":"\q"}]}`,
		`{"results":[{"retry_after_ms":1.5}]}`, `{"reſults":[]}`, `{"x":` + strings.Repeat("[", 600) + strings.Repeat("]", 600) + `}`,
		`{"results":[{"item":"a","score":nul}]}`, `{"results":[{"item":"a","score":-}]}`, `{"results":[{"item":"a","score":1.}]}`,
	} {
		var single V2SearchResponse
		var batch V2BatchResponse
		if DecodeSearchResponse([]byte(body), &single) == nil && DecodeBatchResponse([]byte(body), &batch) == nil {
			t.Errorf("both decoders accepted %q", body)
		}
	}
}

// nanBackend answers every query with a score JSON cannot carry.
type nanBackend struct{ noopBackend }

func nanResults() []search.Result { return []search.Result{{Item: "x", Score: math.NaN()}} }

func (nanBackend) Do(ctx context.Context, req search.Request) (search.Response, error) {
	return search.Response{Results: nanResults()}, nil
}

func (nanBackend) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	out := make([]search.BatchResult, len(reqs))
	for i := range out {
		out[i].Response.Results = nanResults()
	}
	return out
}

// TestUnencodableAnswerIs500: an answer that cannot be encoded is a 500
// with an error body, and the request is traced and logged as that
// 500 — the body is encoded before the status line goes out.
func TestUnencodableAnswerIs500(t *testing.T) {
	s, err := New(nanBackend{})
	if err != nil {
		t.Fatal(err)
	}
	s.SetTracer(obs.NewTracer(obs.Config{SampleEvery: 1}))
	var access, logged bytes.Buffer
	s.SetAccessLogger(obs.NewLogger(&access, "json", "test"))
	s.SetLogf(func(format string, args ...interface{}) { fmt.Fprintf(&logged, format+"\n", args...) })
	query := map[string]interface{}{"seeker": "alice", "tags": []string{"pizza"}, "k": 3}
	for path, body := range map[string]interface{}{
		"/v2/search":       query,
		"/v2/search/batch": map[string]interface{}{"queries": []interface{}{query}},
	} {
		access.Reset()
		logged.Reset()
		rec := doJSON(t, s, http.MethodPost, path, body)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500; body %s", path, rec.Code, rec.Body)
		}
		var e struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "NaN") {
			t.Fatalf("%s: body %q (%v), want a JSON error naming the NaN", path, rec.Body, err)
		}
		if !strings.Contains(logged.String(), "NaN") {
			t.Errorf("%s: the encode failure was not logged: %q", path, logged.String())
		}
		if !strings.Contains(access.String(), `"status":500`) || strings.Contains(access.String(), `"status":200`) {
			t.Errorf("%s: access log %q, want the request logged as a 500 only", path, access.String())
		}
	}
}

// BenchmarkSearchWire encodes and decodes a 10-result /v2/search
// answer and a 64-entry /v2/search/batch answer of 10 results each.
// CI gates its allocations: encoding allocates nothing, and decoding
// allocates the body's string copy, the results and (for a batch) the
// entries.
func BenchmarkSearchWire(b *testing.B) {
	results := func(seed int) []search.Result {
		rs := make([]search.Result, 10)
		for i := range rs {
			rs[i] = search.Result{Item: fmt.Sprintf("item-%05d", seed*37+i*1009%99991), Score: 1.75 / float64(seed+i+3)}
		}
		return rs
	}
	single := V2SearchResponse{Results: results(1)}
	batch := V2BatchResponse{Results: make([]V2BatchEntry, 64)}
	for i := range batch.Results {
		batch.Results[i].Results = results(i)
	}
	singleBody, _ := AppendSearchResponse(nil, &single)
	batchBody, _ := AppendBatchResponse(nil, &batch)
	buf := make([]byte, 0, 64<<10)
	b.Run("encode/single", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendSearchResponse(buf[:0], &single)
		}
	})
	b.Run("encode/batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf, _ = AppendBatchResponse(buf[:0], &batch)
		}
	})
	b.Run("decode/single", func(b *testing.B) {
		b.ReportAllocs()
		var out V2SearchResponse
		for i := 0; i < b.N; i++ {
			if err := DecodeSearchResponse(singleBody, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/batch", func(b *testing.B) {
		b.ReportAllocs()
		var out V2BatchResponse
		for i := 0; i < b.N; i++ {
			if err := DecodeBatchResponse(batchBody, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

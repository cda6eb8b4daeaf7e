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

// FuzzSearchWire holds the answer codec to encoding/json. body is
// arbitrary bytes for the decoders; gen drives a generator of answers
// for the encoders. Three properties:
//   - the encoders' bytes equal json.Encoder's, and they fail exactly
//     where it fails;
//   - the decoders never panic;
//   - each decoder accepts exactly what json.Unmarshal accepts, with
//     its error, and produces an equal value, on arbitrary bytes and on
//     everything the encoders emit.
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
		{"{\"results\":[{\"item\":\"item-00042\",\"score\":0.4375},{\"item\":\"é\",\"score\":-2E-7}]}\n", []byte{7, 1, 2, 3}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":0.5}]},{\"results\":[]}]}\n", []byte{3, 1, 0, 2, 1}},
		{"{\"results\":[{\"item\":\"a\",\"score\":1e400}]}\n", []byte{1, 2, 3}},
	} {
		f.Add([]byte(seed.body), seed.gen)
	}
	f.Fuzz(func(t *testing.T, body, gen []byte) {
		checkDecoders(t, body)
		g := &wireGen{data: gen}
		single := V2SearchResponse{Results: g.results(), Explain: g.explain(), Spans: g.spans()}
		checkEncoded(t, "search response", &single, func(dst []byte) ([]byte, error) {
			return AppendSearchResponse(dst, &single)
		})
		batch := V2BatchResponse{Spans: g.spans()}
		if n := int(g.byte() % 5); n > 0 {
			batch.Results = make([]V2BatchEntry, n-1)
			for i := range batch.Results {
				batch.Results[i] = V2BatchEntry{Results: g.results(), Explain: g.explain(), Error: g.str(), ErrorKind: g.str(), RetryAfterMS: g.int64()}
			}
		}
		checkEncoded(t, "batch response", &batch, func(dst []byte) ([]byte, error) {
			return AppendBatchResponse(dst, &batch)
		})
	})
}

// checkEncoded compares the hand encoding of v with json.Encoder's,
// then decodes it back.
func checkEncoded(t *testing.T, what string, v interface{}, appendTo func([]byte) ([]byte, error)) {
	t.Helper()
	var buf bytes.Buffer
	wantErr := json.NewEncoder(&buf).Encode(v)
	want := buf.Bytes()
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
	checkDecoders(t, want)
}

// checkDecoders decodes body with both decoders, each into a value
// holding stale data, and requires json.Unmarshal's outcome: the same
// error, or none, and a reflect.DeepEqual value.
func checkDecoders(t *testing.T, body []byte) {
	t.Helper()
	single := V2SearchResponse{Results: []search.Result{{Item: "stale"}}, Spans: []obs.SpanData{{Name: "stale"}}}
	var singleWant V2SearchResponse
	err, wantErr := DecodeSearchResponse(body, &single), json.Unmarshal(body, &singleWant)
	checkDecoded(t, "search response", body, err, wantErr, single, singleWant)
	batch := V2BatchResponse{Results: []V2BatchEntry{{Error: "stale"}}}
	var batchWant V2BatchResponse
	err, wantErr = DecodeBatchResponse(body, &batch), json.Unmarshal(body, &batchWant)
	checkDecoded(t, "batch response", body, err, wantErr, batch, batchWant)
}

func checkDecoded(t *testing.T, what string, body []byte, err, wantErr error, got, want interface{}) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s %q: decoder error %v, json.Unmarshal error %v", what, body, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s %q: decoder got %#v, json.Unmarshal %#v", what, body, got, want)
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

// TestSearchWireMatchesUnmarshal: every body decodes exactly as
// json.Unmarshal decodes it, those it refuses and those it reads more
// loosely than the encoder writes (a case-folded or repeated key, deep
// nesting in an unknown field) as well as the encoder's own shapes and
// the bodies that leave them at one byte.
func TestSearchWireMatchesUnmarshal(t *testing.T) {
	for _, body := range []string{
		// Refused.
		``, `null`, `[]`, `{"results":[]}x`, "{\"results\":[]}\x00", `{"results":[],}`, `{"results":[{"item":"a","score":1,}]}`,
		`{"results":[{"item":"a","score":1e400}]}`, `{"results":[{"item":"a","score":01}]}`,
		`{"results":[{"item":"a","score":"1"}]}`, "{\"results\":[{\"item\":\"a\x01\"}]}", `{"results":[{"item":"\q"}]}`,
		`{"results":[{"retry_after_ms":1.5}]}`, `{"results":[{"item":"a","score":nul}]}`, `{"results":[{"item":"a","score":-}]}`,
		`{"results":[{"item":"a","score":1.}]}`, "{\"results\":[{\"item\":\"a\",\"score\":1e400}]}\n",
		"{\"results\":[{\"item\":\"a\",\"score\":1.}]}\n", "{\"results\":[{\"item\":\"a\x01\",\"score\":1}]}\n",
		// Accepted, loosely.
		`{"Results":[]}`, `{"results":[],"results":[]}`, `{"results":[{"item":"a","item":"b"}]}`, `{"reſults":[]}`,
		`{"x":` + strings.Repeat("[", 600) + strings.Repeat("]", 600) + `}`,
		// The encoder's shapes, and one byte off them.
		"{\"results\":[]}\n", "{\"results\":[{\"item\":\"a\",\"score\":1}]}\n",
		"{\"results\":[{\"item\":\"café😀\",\"score\":-0.5e-7},{\"item\":\"\",\"score\":1E+2}]}\n",
		"{\"results\":[{\"results\":[]},{\"results\":[{\"item\":\"a\",\"score\":0.25}]}]}\n",
		"{\"results\":null}\n", "{\"results\":[{\"results\":null}]}\n",
		"{\"results\":[{\"item\":\"a\\u003cb\",\"score\":1}]}\n", "{\"results\":[{\"item\":\"\xff\",\"score\":1}]}\n",
		"{\"results\":[{\"item\":\"a\",\"score\":1}],\"explain\":{\"mode\":\"exact\",\"beta\":0.5}}\n",
		"{\"results\":[{\"item\":\"a\",\"score\":1}],\"spans\":[{\"span_id\":\"1\",\"name\":\"n\",\"start\":\"2026-01-02T03:04:05Z\",\"duration_ms\":1.5}]}\n",
		"{\"results\":[{\"error\":\"query 0: bad\",\"error_kind\":\"invalid\"},{\"results\":[],\"retry_after_ms\":25}]}\n",
		`{"results":[{"item":"a","score":1}]}`, "{\"results\":[{\"item\":\"a\",\"score\":1}]}\n\n",
		"{\"results\": [{\"item\":\"a\",\"score\":1}]}\n", "{\"results\":[{\"item\":\"a\" ,\"score\":1}]}\n",
		"{\"results\":[{\"score\":1,\"item\":\"a\"}]}\n", "{\"results\":[{\"item\":\"a\",\"score\":1,\"rank\":2}]}\n",
		"{\"results\":[{\"item\":\"a\",\"score\":1}]}\r\n", "{\"results\":[{\"item\":\"a\",\"score\":1}}\n",
		"{\"results\":[{\"item\":\"a\",\"score\":1}]", "{\"results\":[{\"item\":\"a\",\"score\":1}]}\nx",
	} {
		checkDecoders(t, []byte(body))
	}
	for _, score := range []string{"0", "-0", "1", "0.25", "-0.5e-7", "1E+2", "5e-324", "1.7976931348623157e308", "123456789.125",
		"01", "-", "1.", ".5", "+1", "1e", "1e+", "1.5e400", "0x10", "1_0", "Infinity", "NaN", "00", "-01", "1.e5", "true", `"1"`} {
		checkDecoders(t, []byte(`{"results":[{"item":"a","score":`+score+"}]}\n"))
		checkDecoders(t, []byte(`{"results":[{"results":[{"item":"a","score":`+score+"}]}]}\n"))
	}
	// The entries of a batch share one array: appending to one must not
	// overwrite the next.
	var batch V2BatchResponse
	body := "{\"results\":[{\"results\":[{\"item\":\"a\",\"score\":1}]},{\"results\":[]},{\"results\":[{\"item\":\"b\",\"score\":2}]}]}\n"
	if err := DecodeBatchResponse([]byte(body), &batch); err != nil {
		t.Fatal(err)
	}
	for i, e := range batch.Results {
		if cap(e.Results) != len(e.Results) {
			t.Errorf("entry %d: cap %d, len %d", i, cap(e.Results), len(e.Results))
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

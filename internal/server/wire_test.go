package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/search"
)

// FuzzSearchWire holds the answer encoder to encoding/json: gen drives
// a generator of answers, and the encoders' bytes must equal
// json.Encoder's, failing exactly where it fails.
func FuzzSearchWire(f *testing.F) {
	for _, gen := range [][]byte{
		{0, 0, 0},
		{1, 1, 1},
		{6, 1, 1, 1, 2},
		{10, 3, 4, 5, 6, 7},
		{14, 0x90, 'a', '<', 0xff, 8, 9},
		{2, 2, 2, 2, 2},
		{3, 3, 3},
		{2, 0, 7, 1, 12, 5, 1, 1, 3},
		{0xff, 0xfe, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04, 0x02, 0x01},
		{5, 0x85, '&', '\n', 0x1f, 0x7f, 0},
		{9, 10, 11, 12},
		{4, 13, 14},
		{7, 1, 2, 3},
		{3, 1, 0, 2, 1},
		{1, 2, 3},
	} {
		f.Add(gen)
	}
	f.Fuzz(func(t *testing.T, gen []byte) {
		g := &wireGen{data: gen}
		single := V2SearchResponse{Results: g.results(), Explain: g.explain()}
		checkEncoded(t, "search response", &single, func(dst []byte) ([]byte, error) {
			return AppendSearchResponse(dst, &single)
		})
		var batch V2BatchResponse
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

// checkEncoded compares the hand encoding of v with json.Encoder's.
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

// BenchmarkSearchWire encodes a 10-result /v2/search answer and a
// 64-entry /v2/search/batch answer of 10 results each. CI gates its
// allocations: encoding allocates nothing.
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
}

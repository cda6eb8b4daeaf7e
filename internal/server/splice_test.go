package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/search"
)

// FuzzBatchSplice holds the batch answer splice to encoding/json. For
// any replica answer, and any map of its entries to positions in a
// front door's batch answer whose other positions hold an invalid
// query's error entry, SplitBatchAnswer either refuses the answer,
// leaving nil at those positions, or it splits out every entry:
//   - it refuses exactly the answers json.Unmarshal refuses, those
//     holding another count of entries, and those with an entry that is
//     not an object or does not decode as a V2BatchEntry;
//   - each entry it splits out decodes as json.Unmarshal decodes that
//     entry of the answer, and the answer it builds with them decodes
//     to the value the decoded entries encode to: byte for byte when
//     the replica's answer is its encoder's own bytes, and value for
//     value when it is other valid JSON (a score written 1.50, an
//     escaped string, an explain), which the splice passes on as
//     written;
//   - it reads an error entry's error fields, which carry the error's
//     class and so decide failover and the admission outcome, as
//     json.Unmarshal reads them, and reports no other entry as failed;
//   - its one pass (splitPlain) takes every answer in the encoder's
//     plain shape.
func FuzzBatchSplice(f *testing.F) {
	plain, err := AppendBatchResponse(nil, &V2BatchResponse{Results: []V2BatchEntry{
		{Results: []search.Result{{Item: "a<b&c>", Score: 1e-7}, {Item: "café\u2028", Score: 0.25}}},
		{Results: []search.Result{}},
		{Results: []search.Result{{Item: "\x01\"\\", Score: 1e21}, {Item: "x", Score: -2}}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	mixed, err := AppendBatchResponse(nil, &V2BatchResponse{Results: []V2BatchEntry{
		{Results: []search.Result{{Item: "é\"\\/\t", Score: 1}}, Explain: &search.Explain{Algorithm: "exact-join", Mode: "exact", HorizonUsers: 3}},
		{Error: "query 1: no such seeker \"b\x01\"", ErrorKind: ErrKindInvalid},
		{Error: "shed", ErrorKind: ErrKindOverloaded, RetryAfterMS: 250},
		{Error: "replica down", ErrorKind: ErrKindUnavailable},
		{Error: "opaque"},
		{Results: []search.Result{{Item: "x", Score: 0.5}}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		answer string
		layout []byte
	}{
		{string(plain), []byte{3, 0}},
		{string(plain), []byte{3, 3, 5, 1, 7}},
		{string(plain), []byte{2, 1}},
		{string(mixed), []byte{6, 2, 3, 1, 4, 1, 5}},
		{string(mixed), []byte{6, 0}},
		{"{\"results\":[]}\n", []byte{0, 2}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":1.50}]}]}\n", []byte{1, 1, 1}},
		{"{\"results\":[{\"results\":[{\"item\":\"\\u00e9\\/\\t\",\"score\":-0.0e+00}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":null,\"error\":\"query 0: bad\",\"error_kind\":\"invalid\"}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"error\":\"down\",\"error_kind\":\"unavailable\"},{\"results\":[]}]}\n", []byte{2, 1, 1}},
		{"{\"results\":[{\"error\":\"shed\",\"error_kind\":\"overloaded\",\"retry_after_ms\":2000}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"error\":\"\\u0071uery \\\"0\\\"\",\"error_kind\":\"inv\\u0061lid\"}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"error_kind\":\"invalid\"}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"retry_after_ms\":1.5,\"error\":\"x\"}]}\n", []byte{1, 0}},
		{"{\"results\":[null]}\n", []byte{1, 0}},
		{"{\"results\":[[]]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":null}]}\n", []byte{1, 0}},
		{"{\"results\":null}\n", []byte{0, 0}},
		{"{\"results\":[{\"results\":[],\"explain\":{\"mode\":\"exact\"}}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[],\"explain\":{\"mode\":1}}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]}],\"spans\":[{\"name\":\"n\"}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]}]}", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]}]}\n\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]}]}\nx", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]} ]}\n", []byte{1, 0}},
		{"{\"results\":[ {\"results\" : [ ] } ]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":1e400}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":" + strings.Repeat("9", 309) + "}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":" + strings.Repeat("9", 308) + ".5}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":01}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":1.}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"\x01\",\"score\":1}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"\\u12\",\"score\":1}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"\\x\",\"score\":1}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"\xff\",\"score\":1}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":1,\"extra\":2}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"score\":1,\"item\":\"x\"}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":1}]},{\"results\":[]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":1}]}]}\n", []byte{2, 0}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":1}]}", []byte{1, 0}},
	} {
		f.Add([]byte(seed.answer), seed.layout)
	}
	f.Fuzz(func(t *testing.T, answer, layout []byte) {
		n, others, positions := spliceLayout(layout)
		entries := make([][]byte, n+others)
		for i := range entries {
			entries[i] = []byte("stale")
		}
		for _, p := range positions {
			entries[p] = nil
		}
		failed, err := SplitBatchAnswer(answer, positions, entries)
		for i, e := range entries {
			if string(e) == "stale" {
				entries[i] = nil // another position, which the splice leaves alone
			} else if !slices.Contains(positions, i) {
				t.Fatalf("%q at %v: the splice wrote position %d", answer, positions, i)
			}
		}

		// encoding/json's reading: the answer's entries, raw, and each
		// decoded on its own.
		var raw struct {
			Results []json.RawMessage `json:"results"`
		}
		decErr := json.Unmarshal(answer, &raw)
		valid := decErr == nil && len(raw.Results) == n
		var dec V2BatchResponse
		if raw.Results != nil {
			dec.Results = make([]V2BatchEntry, len(raw.Results))
		}
		for j := 0; valid && j < n; j++ {
			decErr = json.Unmarshal(raw.Results[j], &dec.Results[j])
			valid = decErr == nil && raw.Results[j][0] == '{'
		}
		if err != nil {
			for _, p := range positions {
				if entries[p] != nil {
					t.Fatalf("%q refused (%v), but position %d holds %q", answer, err, p, entries[p])
				}
			}
			if valid {
				t.Fatalf("%q at %v: refused (%v), but encoding/json reads %d entries %+v", answer, positions, err, n, dec)
			}
			return
		}
		if !valid {
			t.Fatalf("%q at %v split, but encoding/json reads %d entries %+v (error %v)", answer, positions, len(dec.Results), dec, decErr)
		}
		if failed != nil && len(failed) != n {
			t.Fatalf("%q: %d failed slots for %d entries", answer, len(failed), n)
		}
		for j, p := range positions {
			var got V2BatchEntry
			if err := json.Unmarshal(entries[p], &got); err != nil || !reflect.DeepEqual(got, dec.Results[j]) {
				t.Fatalf("%q: entry %d split out as %q, which decodes to %+v (%v), want %+v", answer, j, entries[p], got, err, dec.Results[j])
			}
			var f V2BatchEntry
			if failed != nil {
				f = failed[j]
			}
			want := dec.Results[j]
			if want.Error == "" {
				if f.Error != "" {
					t.Fatalf("%q: entry %d reported failed (%+v), but holds no error", answer, j, f)
				}
				continue
			}
			if f.Error != want.Error || f.ErrorKind != want.ErrorKind || f.RetryAfterMS != want.RetryAfterMS {
				t.Fatalf("%q: entry %d's error read as %+v, encoding/json reads %+v", answer, j, f, want)
			}
		}

		// The front door's answer: the split entries at their positions
		// among the invalid queries' error entries, against the answer
		// encoded from the decoded entries.
		want := V2BatchResponse{Results: make([]V2BatchEntry, n+others)}
		got := V2BatchResponse{Results: make([]V2BatchEntry, n+others)}
		for i := range want.Results {
			want.Results[i] = V2BatchEntry{Error: "query: bad", ErrorKind: ErrKindInvalid}
			got.Results[i] = want.Results[i]
		}
		for j, p := range positions {
			want.Results[p] = dec.Results[j]
			got.Results[p] = V2BatchEntry{}
		}
		wantBytes, err := AppendBatchResponse(nil, &want)
		if err != nil {
			t.Fatal(err)
		}
		gotBytes, err := appendBatchResponse(nil, &got, entries)
		if err != nil {
			t.Fatal(err)
		}
		again, err := AppendBatchResponse(nil, &dec)
		canonical := err == nil && bytes.Equal(again, answer)
		if canonical && dec.Results != nil && allPlain(dec.Results) {
			plainEntries := make([][]byte, n+others)
			if !splitPlain(answer, positions, plainEntries) {
				t.Fatalf("%q is the encoder's plain answer, and its one pass declined it", answer)
			}
		}
		if canonical {
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%q at %v spliced to\n%q\nencoding its entries writes\n%q", answer, positions, gotBytes, wantBytes)
			}
			return
		}
		var gotVal, wantVal V2BatchResponse
		if err := json.Unmarshal(gotBytes, &gotVal); err != nil {
			t.Fatalf("%q at %v spliced to %q, which does not decode: %v", answer, positions, gotBytes, err)
		}
		if err := json.Unmarshal(wantBytes, &wantVal); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotVal, wantVal) {
			t.Fatalf("%q at %v spliced to %q: %+v, its decoded entries %+v", answer, positions, gotBytes, gotVal, wantVal)
		}
	})
}

// spliceLayout reads a splice's layout from fuzz bytes: n entries from
// the replica, others positions that hold something else, and the
// positions of the n entries, a shuffle of 0 … n+others-1.
func spliceLayout(layout []byte) (n, others int, positions []int) {
	next := func() int {
		if len(layout) == 0 {
			return 0
		}
		b := layout[0]
		layout = layout[1:]
		return int(b)
	}
	n, others = next()%9, next()%4
	slots := make([]int, n+others)
	for i := range slots {
		slots[i] = i
	}
	for i := len(slots) - 1; i > 0; i-- {
		j := next() % (i + 1)
		slots[i], slots[j] = slots[j], slots[i]
	}
	return n, others, slots[:n]
}

// allPlain reports whether decoded entries are plain: results, nothing
// else.
func allPlain(es []V2BatchEntry) bool {
	for _, e := range es {
		if e.Results == nil || e.Explain != nil || e.Error != "" || e.ErrorKind != "" || e.RetryAfterMS != 0 {
			return false
		}
	}
	return true
}

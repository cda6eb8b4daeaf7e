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

// FuzzBatchSplice holds the batch answer splice to the decode path. For
// any replica answer, and any map of its entries to positions in a
// front door's batch answer whose other positions hold an invalid
// query's error entry, SplitBatchAnswer either declines, leaving nil at
// those positions, or the answer appendBatchResponse builds from its
// entries is the one AppendBatchResponse encodes from the decode path's
// value: byte for byte when the replica's answer is its encoder's own
// bytes, and value for value when it is other valid JSON (a score
// written 1.50), which the splice passes on as written. An answer in
// the encoder's plain shape is never declined.
func FuzzBatchSplice(f *testing.F) {
	plain, err := AppendBatchResponse(nil, &V2BatchResponse{Results: []V2BatchEntry{
		{Results: []search.Result{{Item: "a<b&c>", Score: 1e-7}, {Item: "café\u2028", Score: 0.25}}},
		{Results: []search.Result{}},
		{Results: []search.Result{{Item: "\x01\"\\", Score: 1e21}, {Item: "x", Score: -2}}},
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
		{"{\"results\":[]}\n", []byte{0, 2}},
		{"{\"results\":[{\"results\":[{\"item\":\"x\",\"score\":1.50}]}]}\n", []byte{1, 1, 1}},
		{"{\"results\":[{\"results\":[{\"item\":\"\\u00e9\\/\\t\",\"score\":-0.0e+00}]}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":null,\"error\":\"query 0: bad\",\"error_kind\":\"invalid\"}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":null}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[],\"explain\":{\"mode\":\"exact\"}}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]}],\"spans\":[{\"name\":\"n\"}]}\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]}]}", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]}]}\n\n", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]}]}\nx", []byte{1, 0}},
		{"{\"results\":[{\"results\":[]} ]}\n", []byte{1, 0}},
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
		ok := SplitBatchAnswer(answer, positions, entries)
		for i, e := range entries {
			if string(e) == "stale" {
				entries[i] = nil // another position, which the splice leaves alone
			} else if !slices.Contains(positions, i) {
				t.Fatalf("%q at %v: the splice wrote position %d", answer, positions, i)
			}
		}

		// The decode path: the replica's answer decoded, its entries placed
		// at their positions among the invalid queries' error entries.
		var dec V2BatchResponse
		decErr := DecodeBatchResponse(answer, &dec)
		canonical := false
		if decErr == nil && len(dec.Results) == n && dec.Spans == nil && allPlain(dec.Results) {
			again, err := AppendBatchResponse(nil, &V2BatchResponse{Results: dec.Results})
			canonical = err == nil && bytes.Equal(again, answer)
		}
		if !ok {
			for _, p := range positions {
				if entries[p] != nil {
					t.Fatalf("%q declined, but position %d holds %q", answer, p, entries[p])
				}
			}
			if canonical {
				t.Fatalf("%q is the encoder's plain answer, and was declined", answer)
			}
			return
		}
		if decErr != nil || len(dec.Results) != n || dec.Spans != nil || !allPlain(dec.Results) {
			t.Fatalf("%q spliced, but the decode path reads %d entries %+v (error %v)", answer, len(dec.Results), dec, decErr)
		}
		want := V2BatchResponse{Results: make([]V2BatchEntry, n+others)}
		got := V2BatchResponse{Results: make([]V2BatchEntry, n+others)}
		for i := range want.Results {
			want.Results[i] = V2BatchEntry{Error: "query: bad", ErrorKind: ErrKindInvalid}
			got.Results[i] = want.Results[i]
		}
		for j, p := range positions {
			want.Results[p] = V2BatchEntry{Results: dec.Results[j].Results}
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
		if canonical {
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%q at %v spliced to\n%q\nthe decode path writes\n%q", answer, positions, gotBytes, wantBytes)
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
			t.Fatalf("%q at %v spliced to %q: %+v, the decode path %+v", answer, positions, gotBytes, gotVal, wantVal)
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

package social

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/search"
	"repro/internal/vocab"
)

// answerGolden is the SHA-256 of goldenAnswers' transcript.
const answerGolden = "491ba8ae5a7d49fcf81b63e4ec86445bf851be754f6239393d7f85f12ae7489d"

// TestEngineAnswerGolden pins the engine's answers and access counters
// bit for bit: 192 two-tag serving queries on the scale-5 corpus (seed
// 42), each at k 1, 10 and 100, mode=exact with Explain, run through
// one Service twice — cold, then from the seeker cache. Any change to
// a result, a score's bits or an Explain counter changes the hash; a
// change that means to move them records the new constant.
func TestEngineAnswerGolden(t *testing.T) {
	if got := goldenAnswers(t); got != answerGolden {
		t.Fatalf("answer hash = %s, want %s", got, answerGolden)
	}
}

// goldenAnswers runs the golden workload and hashes, per answer, every
// result's item and score bits and Explain's horizon size, exactness,
// cache hit, users settled and access counts.
func goldenAnswers(t *testing.T) string {
	t.Helper()
	ds, err := gen.Generate(gen.DeliciousParams().Scale(5), 42)
	if err != nil {
		t.Fatal(err)
	}
	names := vocab.NewSet()
	for i := 0; i < ds.Graph.NumUsers(); i++ {
		names.Users.MustAdd(fmt.Sprintf("u%d", i))
	}
	for i := 0; i < ds.Store.NumItems(); i++ {
		names.Items.MustAdd(fmt.Sprintf("i%d", i))
	}
	for i := 0; i < ds.Store.NumTags(); i++ {
		names.Tags.MustAdd(fmt.Sprintf("t%d", i))
	}
	wp := gen.DefaultWorkloadParams()
	wp.NumQueries = 192
	specs, err := gen.Workload(ds, wp, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Restore(DefaultServiceConfig(), ds.Graph, ds.Store, names)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []search.Request
	for _, q := range specs {
		tags := make([]string, len(q.Tags))
		for i, tg := range q.Tags {
			tags[i] = fmt.Sprintf("t%d", tg)
		}
		for _, k := range []int{1, 10, 100} {
			reqs = append(reqs, search.Request{Seeker: fmt.Sprintf("u%d", q.Seeker), Tags: tags, K: k, Mode: search.ModeExact, Explain: true})
		}
	}
	h := sha256.New()
	var buf []byte
	for pass := 0; pass < 2; pass++ {
		for _, req := range reqs {
			resp, err := svc.Do(context.Background(), req)
			if err != nil {
				t.Fatalf("%+v: %v", req, err)
			}
			buf = buf[:0]
			for _, r := range resp.Results {
				buf = append(buf, r.Item...)
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Score))
			}
			ex := resp.Explain
			if ex == nil {
				t.Fatalf("%+v: no Explain", req)
			}
			for _, v := range []int64{int64(ex.HorizonUsers), b2i(ex.Exact), b2i(ex.CacheHit), int64(ex.UsersSettled), ex.SequentialAccesses, ex.RandomAccesses} {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
			h.Write(buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

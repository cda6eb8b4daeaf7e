package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/tagstore"
)

// horizonGolden is the SHA-256 of every third user's horizon on the
// scale-5 corpus: 3,334 horizons, 5,291,943 entries.
const horizonGolden = "ae96f20014b81e852ca233018f17addc50743a92506e18d66cbcc2159f232ded"

// tiedHorizonGolden is horizonGolden's hash on tiedGraph's corpus, where
// every weight is 0.5, at α 0.6 (every third user) and at α 1 (every
// 97th user).
const tiedHorizonGolden = "797d0c45e47297174c8c5af804297b2a4c24c2613e94280dc62b9d9035af967b"

// TestHorizonGolden pins the expansion bit for bit: the materialized
// horizon of every third user of the scale-5 corpus (seed 42) under the
// serving proximity parameters, hashed entry by entry — user, then the
// proximity's bits — in the order the expansion settles them.
func TestHorizonGolden(t *testing.T) {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(5), 42)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	hashHorizons(t, h, ds.Graph, ds.Store, 0.6, 3)
	if got := hex.EncodeToString(h.Sum(nil)); got != horizonGolden {
		t.Fatalf("horizon hash = %s, want %s", got, horizonGolden)
	}
}

// TestHorizonGoldenTied is TestHorizonGolden on the corpus of
// BenchmarkMaterializeHorizonTied: with one weight, each proximity band
// of the expansion is a single run of ties that only the user id
// orders, which the serving weights never produce at length.
func TestHorizonGoldenTied(t *testing.T) {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(5), 42)
	if err != nil {
		t.Fatal(err)
	}
	g := tiedGraph(t, ds.Graph)
	h := sha256.New()
	hashHorizons(t, h, g, ds.Store, 0.6, 3)
	hashHorizons(t, h, g, ds.Store, 1, 97)
	if got := hex.EncodeToString(h.Sum(nil)); got != tiedHorizonGolden {
		t.Fatalf("tied horizon hash = %s, want %s", got, tiedHorizonGolden)
	}
}

// hashHorizons writes to h the materialized horizon of every stride-th
// user of g at α alpha and the serving self weight and floor, entry by
// entry: user, then the proximity's bits.
func hashHorizons(t *testing.T, h hash.Hash, g *graph.Graph, store *tagstore.Store, alpha float64, stride int) {
	t.Helper()
	e, err := NewEngine(g, store, Config{
		Proximity: proximity.Params{Alpha: alpha, SelfWeight: 1, MinSigma: 0.05}, // social.DefaultServiceConfig at α 0.6
		Beta:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for u := 0; u < g.NumUsers(); u += stride {
		hz, err := e.MaterializeHorizon(graph.UserID(u), 0)
		if err != nil {
			t.Fatal(err)
		}
		buf = buf[:0]
		for _, en := range hz.list {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(en.User))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(en.Prox))
		}
		h.Write(buf)
	}
}

package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proximity"
)

// horizonGolden is the SHA-256 of every third user's horizon on the
// scale-5 corpus: 3,334 horizons, 5,291,943 entries.
const horizonGolden = "ae96f20014b81e852ca233018f17addc50743a92506e18d66cbcc2159f232ded"

// TestHorizonGolden pins the expansion bit for bit: the materialized
// horizon of every third user of the scale-5 corpus (seed 42) under the
// serving proximity parameters, hashed entry by entry — user, then the
// proximity's bits — in the order the expansion settles them.
func TestHorizonGolden(t *testing.T) {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(5), 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Store, Config{
		Proximity: proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.05}, // social.DefaultServiceConfig
		Beta:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	for u := 0; u < ds.Graph.NumUsers(); u += 3 {
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
	if got := hex.EncodeToString(h.Sum(nil)); got != horizonGolden {
		t.Fatalf("horizon hash = %s, want %s", got, horizonGolden)
	}
}

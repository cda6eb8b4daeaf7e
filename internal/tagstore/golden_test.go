package tagstore_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/gen"
	"repro/internal/tagstore"
)

// storeHash is a SHA-256 over every array a built store serves: its
// universe and counts, Triples(), each tag's TagLists, global list
// (its GlobalBlocks read one after another) and MaxTF, and the item index behind GlobalTF.
func storeHash(s *tagstore.Store) string {
	h := sha256.New()
	put := func(vs ...int32) { binary.Write(h, binary.LittleEndian, vs) }
	putLen := func(vs ...int64) { binary.Write(h, binary.LittleEndian, vs) }
	putLen(int64(s.NumUsers()), int64(s.NumItems()), int64(s.NumTags()), int64(s.NumTriples()), s.TotalAnnotations())
	for _, tr := range s.Triples() {
		put(tr.User, tr.Item, tr.Tag, tr.Count)
	}
	for t := tagstore.TagID(0); int(t) < s.NumTags(); t++ {
		users, off, post := s.TagLists(t)
		putLen(int64(len(users)), int64(len(off)), int64(len(post)))
		put(users...)
		put(off...)
		for _, p := range post {
			put(p.Item, p.TF)
		}
		blocks, n := s.GlobalBlocks(t)
		putLen(int64(n))
		for _, b := range blocks {
			for _, p := range b {
				put(p.Item, p.TF)
			}
		}
		put(s.MaxTF(t))
	}
	start, tags, tf := s.ItemIndex()
	putLen(int64(len(start)), int64(len(tags)), int64(len(tf)))
	put(start...)
	put(tags...)
	put(tf...)
	return hex.EncodeToString(h.Sum(nil))
}

// TestServingCorpusStoreHash pins the store the generator builds, array
// for array, at the serving corpus (scale 5, 10,000 users) and at a
// tenth of it, seed 42. The hashes were recorded before the build's
// sorts became radix passes, so any change to what Build produces —
// an order, a sum, a shared array — shows here.
func TestServingCorpusStoreHash(t *testing.T) {
	for _, c := range []struct {
		scale float64
		want  string
	}{
		{0.5, "7e52f850b22951f6d816bda780808ed81c5f39806e1b5131557ebe12b716de23"},
		{5, "0257168e0d6fed1f7479e688444140533968e01df1a5adc7d6fe41558301a84d"},
	} {
		ds, err := gen.Generate(gen.DeliciousParams().Scale(c.scale), 42)
		if err != nil {
			t.Fatal(err)
		}
		if got := storeHash(ds.Store); got != c.want {
			t.Errorf("scale %v: store hash %s, want %s", c.scale, got, c.want)
		}
	}
}

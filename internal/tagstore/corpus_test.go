package tagstore_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/tagstore"
)

// TestMergeAllocatesLessThanTheRelation is the guard against a
// corpus-linear copy of the relation coming back into compaction, as a
// count and not a timing: folding 64 Zipf-tagged writes into a generated
// corpus must allocate fewer bytes than one 16-byte Triple per triple of
// the store — less than the canonical array a merge used to carry over
// whole, before the tag-major lists became the only copy.
func TestMergeAllocatesLessThanTheRelation(t *testing.T) {
	ds, err := gen.Generate(gen.DeliciousParams(), 42)
	if err != nil {
		t.Fatal(err)
	}
	s := ds.Store
	rng := rand.New(rand.NewSource(1))
	tagZ := rand.NewZipf(rng, 1.1, 1, uint64(s.NumTags()-1))
	delta := make([]tagstore.Triple, 64)
	for k := range delta {
		delta[k] = tagstore.Triple{
			User:  int32(rng.Intn(s.NumUsers())),
			Item:  tagstore.ItemID(rng.Intn(s.NumItems())),
			Tag:   tagstore.TagID(tagZ.Uint64()),
			Count: 1,
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	merged, err := s.Merge(delta, s.NumUsers(), s.NumItems(), s.NumTags())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16*s.NumTriples())
	t.Logf("merging 64 writes into %d triples allocated %d bytes (limit %d)", s.NumTriples(), got, limit)
	if got >= limit {
		t.Fatal("a merge allocates as much as a copy of the relation would")
	}
	if merged.NumTriples() < s.NumTriples() || merged.TotalAnnotations() != s.TotalAnnotations()+64 {
		t.Fatalf("merged store holds %d triples and %d annotations", merged.NumTriples(), merged.TotalAnnotations())
	}
}

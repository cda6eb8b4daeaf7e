package core

import (
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/tagstore"
)

// lineEngine builds the line 0-1-…-(n-1) with unit weights under the
// default proximity (no damping, no floor): seeker 0's horizon is every
// user, in id order.
func lineEngine(t testing.TB, n int) *Engine {
	t.Helper()
	gb := graph.NewBuilder(n)
	for u := 0; u < n-1; u++ {
		gb.AddEdge(graph.UserID(u), graph.UserID(u+1), 1)
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := tagstore.NewBuilder(n, 1, 1)
	tb.Add(0, 0, 0)
	store, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, store, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMaterializeHorizonOwnsExactList: the list is copied out of the
// pooled iterator at its exact size — MemoryBytes is the real footprint
// — and holds every user, on both sides of the 256-user cancellation
// checkpoint.
func TestMaterializeHorizonOwnsExactList(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 512, 600} {
		h, err := lineEngine(t, n).MaterializeHorizon(0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if h.Size() != n || cap(h.list) != n {
			t.Fatalf("%d users: %d in a list of capacity %d", n, h.Size(), cap(h.list))
		}
		if want := int(unsafe.Sizeof(*h)) + n*int(unsafe.Sizeof(proximity.Entry{})); h.MemoryBytes() != want {
			t.Fatalf("%d users: MemoryBytes = %d, want %d", n, h.MemoryBytes(), want)
		}
		for i, entry := range h.list {
			if entry.User != graph.UserID(i) || entry.Hops != int32(i) {
				t.Fatalf("%d users: entry %d is user %d at %d hops", n, i, entry.User, entry.Hops)
			}
		}
	}
	// A later expansion reuses the pooled staging buffer; horizons handed
	// out earlier must not see it.
	e := lineEngine(t, 600)
	first, err := e.MaterializeHorizon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MaterializeHorizon(599, 0); err != nil {
		t.Fatal(err)
	}
	for i, entry := range first.list {
		if entry.User != graph.UserID(i) {
			t.Fatalf("entry %d became user %d after a later materialization", i, entry.User)
		}
	}
}

// TestHorizonAccessors: a horizon reports its seeker and size, a
// truncated one is refused, and horizon-backed execution rejects a
// missing horizon, another seeker's horizon, and the options that need
// an expansion of their own.
func TestHorizonAccessors(t *testing.T) {
	e := lineEngine(t, 8)
	if _, err := e.MaterializeHorizon(0, 3); err == nil {
		t.Fatal("MaterializeHorizon with maxUsers 3 accepted")
	}
	h, err := e.MaterializeHorizon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seeker() != 0 || h.Size() != 8 {
		t.Fatalf("Seeker = %d, Size = %d, want 0 and 8", h.Seeker(), h.Size())
	}
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 1}
	if _, err := e.SocialMergeWithHorizon(q, h, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.SocialMergeWithHorizon(Query{Seeker: 1, Tags: q.Tags, K: 1}, h, Options{}); err == nil {
		t.Fatal("horizon/seeker mismatch accepted")
	}
	if _, err := e.SocialMergeWithHorizon(q, nil, Options{}); err == nil {
		t.Fatal("nil horizon accepted")
	}
	if _, err := e.SocialMergeWithHorizon(q, h, Options{UseNeighborhoods: true}); err == nil {
		t.Fatal("UseNeighborhoods accepted")
	}
	if _, err := e.SocialMergeWithHorizon(q, h, Options{LandmarkPrune: true}); err == nil {
		t.Fatal("LandmarkPrune accepted")
	}
}

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

func TestHorizonHasAny(t *testing.T) {
	// tinyEngine: 0-1-2 connected, 3 isolated. Seeker 2's horizon is
	// {2, 1, 0} in proximity order, so 0 is its last member.
	small, err := tinyEngine(t, DefaultConfig()).MaterializeHorizon(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 600 users on a line: more endpoints than the linear path takes.
	large, err := lineEngine(t, 600).MaterializeHorizon(0, 500)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		h      *SeekerHorizon
		sorted []graph.UserID
		want   bool
	}{
		{"nil endpoints", small, nil, false},
		{"empty endpoints", small, []graph.UserID{}, false},
		{"seeker itself", small, []graph.UserID{2}, true},
		{"last member", small, []graph.UserID{0}, true},
		{"absent id", small, []graph.UserID{3}, false},
		{"absent and present", small, []graph.UserID{1, 3}, true},
		{"id no graph holds", small, []graph.UserID{1 << 20}, false},
		{"many, all beyond the truncated prefix", large, []graph.UserID{500, 510, 520, 530, 540, 599}, false},
		{"many, ids no graph holds", large, []graph.UserID{-5, -4, -3, -2, -1, 700}, false},
		{"many, only the highest is a member", large, []graph.UserID{-5, -4, -3, -2, -1, 499}, true},
		{"many, only the lowest is a member", large, []graph.UserID{0, 600, 601, 602, 603, 604}, true},
		{"many, seeker itself", large, []graph.UserID{0, 510, 520, 530, 540, 599}, true},
		{"many, last member of the prefix", large, []graph.UserID{499, 510, 520, 530, 540, 599}, true},
		{"many, one in the middle", large, []graph.UserID{-1, 250, 510, 520, 530, 599}, true},
	}
	for _, c := range cases {
		if got := c.h.HasAny(c.sorted); got != c.want {
			t.Errorf("%s: HasAny(%v) = %v, want %v", c.name, c.sorted, got, c.want)
		}
	}
}

// TestMaterializeHorizonOwnsExactList: the list is copied out of the
// pooled iterator at its exact size — MemoryBytes is the real footprint
// — and truncation lands on the requested count on both sides of the
// 256-user cancellation checkpoint.
func TestMaterializeHorizonOwnsExactList(t *testing.T) {
	e := lineEngine(t, 600)
	for _, c := range []struct{ maxUsers, size int }{
		{0, 600}, {1, 1}, {255, 255}, {256, 256}, {257, 257}, {512, 512}, {600, 600}, {9999, 600},
	} {
		h, err := e.MaterializeHorizon(0, c.maxUsers)
		if err != nil {
			t.Fatal(err)
		}
		if h.Size() != c.size || cap(h.list) != c.size {
			t.Fatalf("maxUsers %d: %d users in a list of capacity %d, want %d and %d", c.maxUsers, h.Size(), cap(h.list), c.size, c.size)
		}
		if want := int(unsafe.Sizeof(*h)) + c.size*int(unsafe.Sizeof(proximity.Entry{})); h.MemoryBytes() != want {
			t.Fatalf("maxUsers %d: MemoryBytes = %d, want %d", c.maxUsers, h.MemoryBytes(), want)
		}
		for i, entry := range h.list {
			if entry.User != graph.UserID(i) || entry.Hops != int32(i) {
				t.Fatalf("maxUsers %d: entry %d is user %d at %d hops", c.maxUsers, i, entry.User, entry.Hops)
			}
		}
		wantResidual := 1.0 // unit weights, no damping: the next user is as close as the last
		if c.size == 600 {
			wantResidual = 0
		}
		if h.Residual() != wantResidual {
			t.Fatalf("maxUsers %d: residual %g, want %g", c.maxUsers, h.Residual(), wantResidual)
		}
	}
	// A later expansion reuses the pooled staging buffer; horizons handed
	// out earlier must not see it.
	first, err := e.MaterializeHorizon(0, 300)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.MaterializeHorizon(599, 300); err != nil {
		t.Fatal(err)
	}
	for i, entry := range first.list {
		if entry.User != graph.UserID(i) {
			t.Fatalf("entry %d became user %d after a later materialization", i, entry.User)
		}
	}
}

// TestHorizonAccessors: a horizon reports its seeker and truncated
// size, and horizon-backed execution rejects a missing horizon, another
// seeker's horizon, and the options that need an expansion of their own.
func TestHorizonAccessors(t *testing.T) {
	e := lineEngine(t, 8)
	h, err := e.MaterializeHorizon(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if h.Seeker() != 0 || h.Size() != 3 {
		t.Fatalf("Seeker = %d, Size = %d, want 0 and 3", h.Seeker(), h.Size())
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

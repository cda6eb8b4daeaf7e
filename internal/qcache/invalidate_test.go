package qcache

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tagstore"
)

// componentsEngine builds a graph of disjoint line components, each
// comp users long: users [0, comp) form component 0, [comp, 2*comp)
// component 1, and so on. Horizons never cross components, which is
// what edge-scoped invalidation tests need.
func componentsEngine(t testing.TB, components, comp int) *core.Engine {
	sizes := make([]int, components)
	for i := range sizes {
		sizes[i] = comp
	}
	return linesEngine(t, sizes, 0.5)
}

// linesEngine builds disjoint lines of the given lengths over
// consecutive ids, every edge at the given weight. At weight 1 (and the
// default no-damping, no-floor proximity) a horizon is its whole line
// however long that is.
func linesEngine(t testing.TB, sizes []int, weight float64) *core.Engine {
	return weightedLinesEngine(t, sizes, func(int) float64 { return weight }, core.DefaultConfig())
}

// weightedLinesEngine is linesEngine with edge (u, u+1) at weight(u),
// under cfg.
func weightedLinesEngine(t testing.TB, sizes []int, weight func(u int) float64, cfg core.Config) *core.Engine {
	t.Helper()
	n := 0
	for _, size := range sizes {
		n += size
	}
	gb := graph.NewBuilder(n)
	base := 0
	for _, size := range sizes {
		for u := base; u < base+size-1; u++ {
			gb.AddEdge(graph.UserID(u), graph.UserID(u+1), weight(u))
		}
		base += size
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := tagstore.NewBuilder(n, n, 1)
	for u := 0; u < n; u++ {
		tb.Add(int32(u), tagstore.ItemID(u), 0)
	}
	store, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(g, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestInvalidateEdgeScopedToMembers(t *testing.T) {
	e := componentsEngine(t, 2, 4) // components {0..3} and {4..7}
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	c.Put(0, gen, horizonFor(t, e, 0))
	c.Put(5, gen, horizonFor(t, e, 5))

	// A mutation inside component 0 must drop seeker 0's horizon (it
	// contains users 1 and 2) and leave seeker 5's untouched.
	if n := c.InvalidateEdge(1, 2); n != 1 {
		t.Fatalf("InvalidateEdge dropped %d entries, want 1", n)
	}
	ngen := c.Generation()
	if ngen != gen+1 {
		t.Fatalf("generation %d after edge invalidation, want %d", ngen, gen+1)
	}
	if _, ok := c.Lookup(0, ngen, 0); ok {
		t.Fatal("affected horizon served after edge invalidation")
	}
	// The survivor stays a hit under the NEW generation: that is the
	// whole point of edge scoping.
	if _, ok := c.Lookup(5, ngen, 0); !ok {
		t.Fatal("unaffected horizon dropped by edge invalidation")
	}
	s := c.Counters()
	if s.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Invalidations)
	}
}

func TestInvalidateEdgeBracketsPut(t *testing.T) {
	e := componentsEngine(t, 2, 4)
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	h := horizonFor(t, e, 5) // component 1: unrelated to the edge below
	// The graph moved (in component 0) while the horizon was being
	// built. The bracket must still refuse the insert: the cache cannot
	// prove which snapshot the horizon was computed from.
	c.InvalidateEdge(0, 1)
	if c.Put(5, gen, h) {
		t.Fatal("Put accepted a horizon bracketed by an edge invalidation")
	}
	if !c.Put(5, c.Generation(), horizonFor(t, e, 5)) {
		t.Fatal("current-generation Put refused")
	}
}

func TestInvalidateEdgesBatchOneGeneration(t *testing.T) {
	e := componentsEngine(t, 3, 3) // {0,1,2} {3,4,5} {6,7,8}
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	c.Put(0, gen, horizonFor(t, e, 0))
	c.Put(3, gen, horizonFor(t, e, 3))
	c.Put(6, gen, horizonFor(t, e, 6))
	if n := c.InvalidateEdges([]graph.Edge{{U: 0, V: 1, Weight: 1}, {U: 4, V: 5, Weight: 1}}); n != 2 {
		t.Fatalf("dropped %d entries, want 2", n)
	}
	if got := c.Generation(); got != gen+1 {
		t.Fatalf("batch invalidation bumped generation to %d, want %d", got, gen+1)
	}
	if _, ok := c.Lookup(6, c.Generation(), 0); !ok {
		t.Fatal("survivor dropped")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want 1", c.Len())
	}
}

// TestLargeHorizonIsScopedNotWildcard: no horizon is too large to be
// scoped. A 3,000-user horizon survives an edge elsewhere in the graph
// and is dropped by one touching its farthest member.
func TestLargeHorizonIsScopedNotWildcard(t *testing.T) {
	const comp = 3000
	e := linesEngine(t, []int{comp, comp}, 1)
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	h := horizonFor(t, e, 0)
	if h.Size() != comp {
		t.Fatalf("horizon holds %d users, want the whole %d-user component", h.Size(), comp)
	}
	c.Put(0, c.Generation(), h)
	if n := c.InvalidateEdge(comp+5, comp+6); n != 0 {
		t.Fatalf("edge in the other component dropped %d entries, want 0", n)
	}
	if _, ok := c.Lookup(0, c.Generation(), 0); !ok {
		t.Fatal("large horizon dropped by an edge that cannot reach it")
	}
	if n := c.InvalidateEdge(comp-1, comp+6); n != 1 {
		t.Fatalf("edge touching the farthest member dropped %d entries, want 1", n)
	}
}

// TestMemberIndexFollowsEvictionAndRefresh: invalidation is scoped by
// the horizons resident now. After an eviction and after an in-place
// refresh, an edge touching only the old members drops nothing and an
// edge touching a new member drops exactly that entry.
func TestMemberIndexFollowsEvictionAndRefresh(t *testing.T) {
	e := componentsEngine(t, 3, 3) // {0,1,2} {3,4,5} {6,7,8}
	c, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	c.Put(0, gen, horizonFor(t, e, 0))
	c.Put(3, gen, horizonFor(t, e, 3))
	c.Put(0, gen, horizonFor(t, e, 0)) // refresh in place
	c.Put(6, gen, horizonFor(t, e, 6)) // evicts seeker 3 (LRU tail)
	if _, ok := c.Lookup(3, gen, 0); ok {
		t.Fatal("evicted entry still resident")
	}
	if n := c.InvalidateEdge(4, 5); n != 0 {
		t.Fatalf("edge over evicted members dropped %d entries", n)
	}
	if n := c.InvalidateEdge(5, 7); n != 1 || c.Len() != 1 {
		t.Fatalf("edge touching seeker 6's member dropped %d entries, %d left; want 1 and 1", n, c.Len())
	}

	// Refresh seeker 0's entry with a horizon over other members (the
	// cache does not read a horizon's seeker): scope follows the new one.
	gen = c.Generation()
	c.Put(0, gen, horizonFor(t, e, 3))
	if n := c.InvalidateEdge(1, 2); n != 0 {
		t.Fatalf("edge over the replaced horizon's members dropped %d entries", n)
	}
	if n := c.InvalidateEdge(2, 4); n != 1 || c.Len() != 0 {
		t.Fatalf("edge touching the refreshed horizon's member dropped %d entries, %d left; want 1 and 0", n, c.Len())
	}
}

// TestTTLExpiry: an entry's time to live is the age bound of the lookup
// that reads it (the per-query max_cache_age_ms), the only expiry there
// is. An entry older than the bound misses, is reaped and counts as an
// expiration; a looser bound still hits.
func TestTTLExpiry(t *testing.T) {
	e := componentsEngine(t, 1, 8)
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	c.Put(0, gen, horizonFor(t, e, 0))
	c.Put(1, gen, horizonFor(t, e, 1))
	time.Sleep(5 * time.Millisecond)
	if _, ok := c.Lookup(0, gen, time.Hour); !ok {
		t.Fatal("entry younger than the bound refused")
	}
	if _, ok := c.Lookup(1, gen, time.Millisecond); ok {
		t.Fatal("entry older than the bound served")
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d, want the expired entry reaped", c.Len())
	}
	if s := c.Counters(); s.Expirations != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("counters = %+v, want 1 expiration, 1 hit, 1 miss", s)
	}
}

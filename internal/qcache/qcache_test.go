package qcache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// testEngine builds a small line graph 0-1-2-...-(n-1) with one tagging
// action per user, enough to materialize non-trivial horizons.
func testEngine(t testing.TB, n int) *core.Engine {
	return linesEngine(t, []int{n}, 0.5)
}

func horizonFor(t testing.TB, e *core.Engine, seeker graph.UserID) *core.SeekerHorizon {
	t.Helper()
	h, err := e.MaterializeHorizon(seeker, 0)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewValidation(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		if _, err := New(capacity); err == nil {
			t.Errorf("capacity %d accepted", capacity)
		}
	}
	// ⌈capacity/64⌉ stripes of ⌈capacity/stripes⌉ entries each.
	for _, tc := range []struct{ capacity, stripes, per int }{
		{1, 1, 1}, {64, 1, 64}, {65, 2, 33}, {150, 3, 50}, {256, 4, 64}, {4096, 64, 64},
	} {
		c, err := New(tc.capacity)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.stripes) != tc.stripes || c.stripes[0].capacity != tc.per {
			t.Errorf("capacity %d: %d stripes of %d, want %d of %d",
				tc.capacity, len(c.stripes), c.stripes[0].capacity, tc.stripes, tc.per)
		}
	}
}

func TestHitMissAndLRUOrder(t *testing.T) {
	e := testEngine(t, 8)
	c, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	if _, ok := c.Lookup(0, gen, 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(0, gen, horizonFor(t, e, 0))
	c.Put(1, gen, horizonFor(t, e, 1))
	if h, ok := c.Lookup(0, gen, 0); !ok || h.Seeker() != 0 {
		t.Fatalf("Lookup(0) = %v, %v", h, ok)
	}
	// 1 is now least recently used; inserting 2 evicts it.
	c.Put(2, gen, horizonFor(t, e, 2))
	if _, ok := c.Lookup(1, gen, 0); ok {
		t.Fatal("evicted entry still resident")
	}
	if _, ok := c.Lookup(0, gen, 0); !ok {
		t.Fatal("recently used entry evicted")
	}
	s := c.Counters()
	if s.Hits != 2 || s.Misses != 2 || s.Evictions != 1 {
		t.Fatalf("counters = %+v", s)
	}
}

func TestGenerationInvalidation(t *testing.T) {
	e := testEngine(t, 8)
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	c.Put(3, gen, horizonFor(t, e, 3))
	if _, ok := c.Lookup(3, gen, 0); !ok {
		t.Fatal("fresh entry missed")
	}
	c.Invalidate()
	if _, ok := c.Lookup(3, c.Generation(), 0); ok {
		t.Fatal("stale entry served after Invalidate")
	}
	if c.Len() != 0 {
		t.Fatalf("stale entry not reaped: len = %d", c.Len())
	}
	s := c.Counters()
	if s.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", s.Invalidations)
	}
}

func TestPutRefusesStaleGeneration(t *testing.T) {
	e := testEngine(t, 8)
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	c.Invalidate() // the graph changed while the horizon was being built
	if c.Put(2, gen, horizonFor(t, e, 2)) {
		t.Fatal("Put accepted a horizon from a superseded generation")
	}
	if _, ok := c.Lookup(2, c.Generation(), 0); ok {
		t.Fatal("stale horizon resident")
	}
	if !c.Put(2, c.Generation(), horizonFor(t, e, 2)) {
		t.Fatal("current-generation Put refused")
	}
}

func TestPutNilAndRefresh(t *testing.T) {
	e := testEngine(t, 8)
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Put(0, c.Generation(), nil) {
		t.Fatal("nil horizon accepted")
	}
	gen := c.Generation()
	c.Put(0, gen, horizonFor(t, e, 0))
	// A duplicate insert for the same seeker refreshes in place.
	c.Put(0, gen, horizonFor(t, e, 0))
	if c.Len() != 1 {
		t.Fatalf("len = %d after duplicate insert", c.Len())
	}
}

// TestConcurrentUse exercises the cache under racing readers, writers,
// and invalidators; run with -race.
func TestConcurrentUse(t *testing.T) {
	e := testEngine(t, 16)
	c, err := New(8)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seeker := graph.UserID((w + i) % 16)
				switch i % 5 {
				case 0:
					c.Invalidate()
				case 1:
					c.InvalidateEdge(seeker, seeker+1)
				default:
					gen := c.Generation()
					if _, ok := c.Lookup(seeker, gen, 0); !ok {
						c.Put(seeker, gen, horizonFor(t, e, seeker))
					}
				}
			}
		}(w)
	}
	wg.Wait()
	s := c.Counters()
	if s.Hits+s.Misses == 0 {
		t.Fatal("no lookups recorded")
	}
	if got := fmt.Sprint(s.HitRate()); got == "NaN" {
		t.Fatalf("hit rate = %s", got)
	}
}

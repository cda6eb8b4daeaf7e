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
	if _, err := New(1); err != nil {
		t.Fatal(err)
	}
}

func TestHitMissAndLRUOrder(t *testing.T) {
	e := testEngine(t, 8)
	c, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	if _, ok := c.Get(0, gen); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(0, gen, horizonFor(t, e, 0))
	c.Put(1, gen, horizonFor(t, e, 1))
	if h, ok := c.Get(0, gen); !ok || h.Seeker() != 0 {
		t.Fatalf("Get(0) = %v, %v", h, ok)
	}
	// 1 is now least recently used; inserting 2 evicts it.
	c.Put(2, gen, horizonFor(t, e, 2))
	if _, ok := c.Get(1, gen); ok {
		t.Fatal("evicted entry still resident")
	}
	if _, ok := c.Get(0, gen); !ok {
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
	if _, ok := c.Get(3, gen); !ok {
		t.Fatal("fresh entry missed")
	}
	c.Invalidate()
	if _, ok := c.Get(3, c.Generation()); ok {
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
	if _, ok := c.Get(2, c.Generation()); ok {
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

func TestInvalidateSeeker(t *testing.T) {
	e := testEngine(t, 8)
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	c.Put(0, gen, horizonFor(t, e, 0))
	c.Put(1, gen, horizonFor(t, e, 1))
	if !c.InvalidateSeeker(0) {
		t.Fatal("resident entry not invalidated")
	}
	if c.InvalidateSeeker(0) {
		t.Fatal("absent entry reported invalidated")
	}
	if _, ok := c.Get(1, gen); !ok {
		t.Fatal("unrelated entry dropped")
	}
}

func TestPurge(t *testing.T) {
	e := testEngine(t, 8)
	c, err := New(4)
	if err != nil {
		t.Fatal(err)
	}
	gen := c.Generation()
	c.Put(0, gen, horizonFor(t, e, 0))
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("len = %d after Purge", c.Len())
	}
	if c.Generation() != gen {
		t.Fatal("Purge moved the generation")
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
					c.InvalidateSeeker(seeker)
				default:
					gen := c.Generation()
					if _, ok := c.Get(seeker, gen); !ok {
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

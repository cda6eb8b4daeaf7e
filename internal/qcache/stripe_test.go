package qcache

import (
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
)

// stripeWorld is a 256-entry cache (four stripes) holding the horizons
// of 64 seekers on 16 disjoint 4-user lines of weight 0.5. The batch's
// edges lie in lines 0–7 at weight 1, which raises an edge's farther
// endpoint from every seeker on its line, so seekers 0–31 are affected
// and 32–63 are not, and every stripe holds some of each.
type stripeWorld struct {
	c        *Cache
	gen      uint64 // the generation every horizon was Put under
	horizons []*core.SeekerHorizon
	batch    []graph.Edge
}

const stripeSeekers, stripeAffected = 64, 32

func newStripeWorld(t *testing.T) *stripeWorld {
	t.Helper()
	e := componentsEngine(t, stripeSeekers/4, 4)
	c, err := New(256)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.stripes) != 4 {
		t.Fatalf("256 entries split into %d stripes, want 4", len(c.stripes))
	}
	w := &stripeWorld{c: c, gen: c.Generation()}
	for u := graph.UserID(0); u < stripeSeekers; u++ {
		h := horizonFor(t, e, u)
		w.horizons = append(w.horizons, h)
		if !c.Put(u, w.gen, h) {
			t.Fatalf("seeker %d refused", u)
		}
	}
	for line := graph.UserID(0); line < stripeAffected/4; line++ {
		w.batch = append(w.batch, graph.Edge{U: 4 * line, V: 4*line + 1, Weight: 1})
	}
	for i := range c.stripes {
		var affected, spared bool
		for el := c.stripes[i].lru.Front(); el != nil; el = el.Next() {
			u := el.Value.(*entry).seeker
			affected = affected || u < stripeAffected
			spared = spared || u >= stripeAffected
		}
		if !affected || !spared {
			t.Fatalf("stripe %d holds affected=%v spared=%v seekers, want both", i, affected, spared)
		}
	}
	return w
}

// invalidateMidScan runs InvalidateEdges(w.batch) while holding the last
// stripe's lock, so the scan stops there with every other stripe behind
// it. Once the scan has dropped a stripe's affected horizons, a Put of
// one of them under the generation the horizons were built in must be
// refused: the invalidation bumped the generation before it scanned
// anything. Returns the number of entries the invalidation dropped.
func (w *stripeWorld) invalidateMidScan(t *testing.T) int {
	t.Helper()
	c := w.c
	last := &c.stripes[len(c.stripes)-1]
	last.mu.Lock()
	done := make(chan int, 1)
	go func() { done <- c.InvalidateEdges(w.batch) }()
	for i := range c.stripes[:len(c.stripes)-1] {
		s := &c.stripes[i]
		var victim graph.UserID = -1
		for u := graph.UserID(0); u < stripeAffected && victim < 0; u++ {
			if c.stripeOf(u) == s {
				victim = u
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			s.mu.Lock()
			_, resident := s.index[victim]
			s.mu.Unlock()
			if !resident {
				break
			}
			if time.Now().After(deadline) {
				last.mu.Unlock()
				t.Fatalf("the scan never dropped seeker %d from stripe %d", victim, i)
			}
			runtime.Gosched()
		}
		if c.Put(victim, w.gen, w.horizons[victim]) {
			last.mu.Unlock()
			<-done
			t.Fatalf("stripe %d: a Put under the superseded generation was accepted after the scan passed the stripe", i)
		}
	}
	last.mu.Unlock()
	return <-done
}

// TestStripesRouteAndInvalidate: one generation spans every stripe. An
// edge batch drops the horizons it affects in every stripe and no
// other, a Put under the superseded generation is refused in every
// stripe, and Len, Seekers and Counters add up over all stripes — each
// checked across an invalidation paused mid-scan.
func TestStripesRouteAndInvalidate(t *testing.T) {
	t.Run("edge drops affected horizons in every stripe", func(t *testing.T) {
		w := newStripeWorld(t)
		if n := w.invalidateMidScan(t); n != stripeAffected {
			t.Fatalf("dropped %d entries, want %d", n, stripeAffected)
		}
		gen := w.c.Generation()
		for u := graph.UserID(0); u < stripeSeekers; u++ {
			h, hit := w.c.Lookup(u, gen, 0)
			if want := u >= stripeAffected; hit != want || (hit && h != w.horizons[u]) {
				t.Fatalf("seeker %d: hit=%v, want %v with its own horizon", u, hit, want)
			}
		}
	})
	t.Run("stale-generation Put refused in every stripe", func(t *testing.T) {
		w := newStripeWorld(t)
		w.invalidateMidScan(t)
		for u := graph.UserID(0); u < stripeAffected; u++ {
			if w.c.Put(u, w.gen, w.horizons[u]) {
				t.Fatalf("seeker %d: Put under the superseded generation accepted", u)
			}
			if !w.c.Put(u, w.c.Generation(), w.horizons[u]) {
				t.Fatalf("seeker %d: Put under the current generation refused", u)
			}
		}
	})
	t.Run("Len, Seekers and Counters cover all stripes", func(t *testing.T) {
		w := newStripeWorld(t)
		w.invalidateMidScan(t)
		if n := w.c.Len(); n != stripeSeekers-stripeAffected {
			t.Fatalf("Len = %d, want %d", n, stripeSeekers-stripeAffected)
		}
		resident := w.c.Seekers()
		slices.Sort(resident)
		for i, u := range resident {
			if u != graph.UserID(stripeAffected+i) {
				t.Fatalf("Seekers = %v, want %d..%d", resident, stripeAffected, stripeSeekers-1)
			}
		}
		if len(resident) != stripeSeekers-stripeAffected {
			t.Fatalf("Seekers lists %d seekers, want %d", len(resident), stripeSeekers-stripeAffected)
		}
		gen := w.c.Generation()
		for u := graph.UserID(0); u < stripeSeekers; u++ {
			w.c.Lookup(u, gen, 0)
		}
		w.c.Invalidate()
		for u := graph.UserID(stripeAffected); u < stripeSeekers; u++ {
			if _, hit := w.c.Lookup(u, w.c.Generation(), 0); hit {
				t.Fatalf("seeker %d served after a full invalidation", u)
			}
		}
		// Every seeker was invalidated once: the affected by the scan, the
		// rest reaped under the floor. Every seeker missed once.
		if s := w.c.Counters(); s.Invalidations != stripeSeekers || s.Hits != stripeSeekers-stripeAffected || s.Misses != stripeSeekers {
			t.Fatalf("counters = %+v, want %d invalidations, %d hits, %d misses", s, stripeSeekers, stripeSeekers-stripeAffected, stripeSeekers)
		}
		if n := w.c.Len(); n != 0 {
			t.Fatalf("Len = %d after every stale entry was looked up, want 0", n)
		}
	})
}

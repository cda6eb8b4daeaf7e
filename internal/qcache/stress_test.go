package qcache

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// TestEdgeInvalidationNeverServesStale is the -race stress test for the
// Put-refusal bracket and lazy reaping under edge-scoped invalidation:
// concurrent "compactions" (version bump + InvalidateEdges, under the
// same lock a service would hold) interleave with concurrent lookups
// and materializations, and the test asserts that a cache hit NEVER
// returns a horizon materialized from a superseded graph version.
//
// Graph model: component A = users {0..3} (line), component B =
// {4..7}. The mutated edge is (0, 1), so every component-A horizon is
// affected by every mutation while component-B horizons never are. The
// "graph version" of component A is tracked in the harness; horizons
// are pre-materialized per (seeker, version) so a served horizon's
// version is recoverable by pointer identity. The cache has four lock
// stripes and the eight seekers land in all of them, so Puts race scans
// that have and have not reached their stripe yet.
func TestEdgeInvalidationNeverServesStale(t *testing.T) {
	const (
		versions = 64
		readers  = 8
		lookups  = 400
	)
	e := componentsEngine(t, 2, 4)
	c, err := New(256)
	if err != nil {
		t.Fatal(err)
	}

	seekersA := []graph.UserID{0, 1, 2, 3}
	seekersB := []graph.UserID{4, 5, 6, 7}
	used := make(map[*stripe]bool)
	for _, s := range append(append([]graph.UserID(nil), seekersA...), seekersB...) {
		used[c.stripeOf(s)] = true
	}
	if len(used) != len(c.stripes) {
		t.Fatalf("seekers use %d of %d stripes", len(used), len(c.stripes))
	}

	// Pre-materialize distinct horizon objects per (seeker, version) and
	// index them by identity. Read-only during the stress phase.
	versionOf := make(map[*core.SeekerHorizon]int)
	prebuilt := make(map[graph.UserID][]*core.SeekerHorizon)
	for _, s := range append(append([]graph.UserID(nil), seekersA...), seekersB...) {
		hs := make([]*core.SeekerHorizon, versions)
		for v := 0; v < versions; v++ {
			h := horizonFor(t, e, s)
			versionOf[h] = v
			hs[v] = h
		}
		prebuilt[s] = hs
	}

	// svcMu plays the service mutex: compaction bumps the version and
	// invalidates under it; queries pin (version, generation) under it.
	var svcMu sync.Mutex
	graphVer := 0

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the mutator: versions-1 compactions with friend edges
		defer wg.Done()
		for v := 1; v < versions; v++ {
			svcMu.Lock()
			graphVer = v
			c.InvalidateEdges([]graph.Edge{{U: 0, V: 1, Weight: 1}})
			svcMu.Unlock()
		}
	}()

	var staleMu sync.Mutex
	var stale []int // (servedVersion, pinnedVersion) pairs, flattened
	var hitsB int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < lookups; i++ {
				var s graph.UserID
				affected := i%2 == 0
				if affected {
					s = seekersA[(r+i)%len(seekersA)]
				} else {
					s = seekersB[(r+i)%len(seekersB)]
				}
				svcMu.Lock()
				v := graphVer
				gen := c.Generation()
				svcMu.Unlock()
				if h, ok := c.Lookup(s, gen, 0); ok {
					if affected {
						if got := versionOf[h]; got != v {
							staleMu.Lock()
							stale = append(stale, got, v)
							staleMu.Unlock()
						}
					} else {
						staleMu.Lock()
						hitsB++
						staleMu.Unlock()
					}
					continue
				}
				// Miss: "materialize" from the pinned version and offer it
				// back under the pinned generation. The bracket must refuse
				// it if a compaction ran meanwhile.
				if affected {
					c.Put(s, gen, prebuilt[s][v])
				} else {
					c.Put(s, gen, prebuilt[s][0])
				}
			}
		}(r)
	}
	wg.Wait()

	if len(stale) > 0 {
		t.Fatalf("served %d stale horizons; first: version %d under pinned version %d",
			len(stale)/2, stale[0], stale[1])
	}
	if hitsB == 0 {
		t.Fatal("unaffected seekers never hit: edge scoping is not retaining survivors")
	}
	// Final state: with mutations quiesced, one more round per affected
	// seeker must converge to serving exactly the latest version.
	gen := c.Generation()
	for _, s := range seekersA {
		c.Put(s, gen, prebuilt[s][graphVer])
		h, ok := c.Lookup(s, gen, 0)
		if !ok {
			t.Fatalf("seeker %d: final Put not served", s)
		}
		if versionOf[h] != graphVer {
			t.Fatalf("seeker %d: final horizon version %d, want %d", s, versionOf[h], graphVer)
		}
	}
}

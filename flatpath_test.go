package repro

// Tests for the zero-allocation flat-graph read path: one asserts the
// warm serving path literally does not allocate, the other is the
// cross-layout property test — the flat (materialized-horizon) path
// must answer bit-identically to the pointer (lazy-expansion) path on
// random graphs across random mutation sequences.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/search"
	"repro/internal/social"
	"repro/internal/tagstore"
)

// TestCachedReadPathZeroAlloc: after the seeker cache and the arenas
// are warm, a full serving workload through DoInto must perform zero
// heap allocations. This is the programmatic twin of benchgate's
// allocs/op gate on BenchmarkServingCachedSearch.
func TestCachedReadPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	svc, reqs := servingService(t, 0)
	var resp search.Response
	ctx := context.Background()
	// Two warm passes: the first fills the seeker cache, the second
	// exercises every pooled arena so all reusable buffers exist at
	// their steady-state capacity.
	for pass := 0; pass < 2; pass++ {
		for i := range reqs {
			if err := svc.DoInto(ctx, reqs[i], &resp); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Any GC cycle may empty a sync.Pool; pin collection off so a
	// mid-measurement collection cannot charge a pool refill to us.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(10, func() {
		for i := range reqs {
			if err := svc.DoInto(ctx, reqs[i], &resp); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("warm cached read path allocated %.2f times per %d-query workload, want 0", avg, len(reqs))
	}
}

// TestPropertyFlatHorizonMatchesPointerPath: on random graphs mutated
// in random rounds, a ModeExact answer served from the flat
// materialized horizon (cache miss installing it, then a cache hit
// replaying it) must equal the answer from the lazy pointer-graph
// expansion (NoCache) bit-for-bit: same items, same float64 scores,
// same certified ScoreBound, same Exact flag. Each round ends with a
// concurrent DoInto storm so `go test -race` exercises the pooled
// arenas under contention.
func TestPropertyFlatHorizonMatchesPointerPath(t *testing.T) {
	const (
		users = 24
		items = 40
		tags  = 5
	)
	ctx := context.Background()
	user := func(i int) string { return fmt.Sprintf("u%d", i) }
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := social.DefaultServiceConfig()
		cfg.Proximity = proximity.Params{Alpha: 0.7, SelfWeight: 1, MinSigma: 0.02}
		cfg.AutoCompactEvery = 0 // every write compacts and invalidates
		cfg.SeekerCacheSize = 256
		svc, err := social.NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mutate := func(n int) {
			for i := 0; i < n; i++ {
				if rng.Intn(2) == 0 {
					a, b := rng.Intn(users), rng.Intn(users)
					if a == b {
						continue
					}
					if err := svc.Befriend(user(a), user(b), 0.1+0.8*rng.Float64()); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := svc.Tag(user(rng.Intn(users)), fmt.Sprintf("i%d", rng.Intn(items)), fmt.Sprintf("t%d", rng.Intn(tags))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := svc.Flush(); err != nil {
				t.Fatal(err)
			}
			// Every write above was its own compaction: the snapshot they
			// chained to must be the one a fresh build of its content gives.
			g, st, _, err := svc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			gb := graph.NewBuilder(g.NumUsers())
			for _, e := range g.Edges() {
				gb.AddEdge(e.U, e.V, e.Weight)
			}
			tb := tagstore.NewBuilder(st.NumUsers(), st.NumItems(), st.NumTags())
			for _, tr := range st.Triples() {
				tb.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
			}
			if fresh, err := gb.Build(); err != nil || !reflect.DeepEqual(g, fresh) {
				t.Fatalf("seed %d: compacted graph differs from a fresh build (%v)", seed, err)
			}
			if fresh, err := tb.Build(); err != nil || !reflect.DeepEqual(st, fresh) {
				t.Fatalf("seed %d: compacted store differs from a fresh build (%v)", seed, err)
			}
		}
		mutate(120)
		for round := 0; round < 5; round++ {
			for s := 0; s < users; s++ {
				qtags := []string{fmt.Sprintf("t%d", rng.Intn(tags))}
				if rng.Intn(3) == 0 {
					qtags = append(qtags, fmt.Sprintf("t%d", rng.Intn(tags)))
				}
				base := search.Request{
					Seeker:  user(s),
					Tags:    qtags,
					K:       1 + rng.Intn(10),
					Mode:    search.ModeExact,
					Explain: true,
				}
				ptrReq := base
				ptrReq.NoCache = true
				ptr, err := svc.Do(ctx, ptrReq) // lazy pointer-graph expansion
				if err != nil {
					t.Fatal(err)
				}
				miss, err := svc.Do(ctx, base) // miss: materialize + install flat horizon
				if err != nil {
					t.Fatal(err)
				}
				hit, err := svc.Do(ctx, base) // hit: replay the cached flat horizon
				if err != nil {
					t.Fatal(err)
				}
				for _, flat := range [...]struct {
					name string
					resp search.Response
				}{{"miss", miss}, {"hit", hit}} {
					if len(flat.resp.Results) != len(ptr.Results) {
						t.Fatalf("seed %d round %d %s/%v k=%d (%s): %d results flat vs %d pointer",
							seed, round, base.Seeker, qtags, base.K, flat.name, len(flat.resp.Results), len(ptr.Results))
					}
					for i := range ptr.Results {
						if flat.resp.Results[i] != ptr.Results[i] {
							t.Fatalf("seed %d round %d %s/%v k=%d (%s): result %d = %+v flat vs %+v pointer",
								seed, round, base.Seeker, qtags, base.K, flat.name, i, flat.resp.Results[i], ptr.Results[i])
						}
					}
					if flat.resp.Explain.ScoreBound != ptr.Explain.ScoreBound {
						t.Fatalf("seed %d round %d %s/%v (%s): ScoreBound %v flat vs %v pointer",
							seed, round, base.Seeker, qtags, flat.name, flat.resp.Explain.ScoreBound, ptr.Explain.ScoreBound)
					}
					if flat.resp.Explain.Exact != ptr.Explain.Exact {
						t.Fatalf("seed %d round %d %s/%v (%s): Exact %v flat vs %v pointer",
							seed, round, base.Seeker, qtags, flat.name, flat.resp.Explain.Exact, ptr.Explain.Exact)
					}
				}
			}
			// Concurrent storm over the pooled path: answers are already
			// verified above; this exists so -race sees the arenas under
			// contention.
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					wrng := rand.New(rand.NewSource(seed<<8 | int64(w)))
					var resp search.Response
					for i := 0; i < 32; i++ {
						req := search.Request{
							Seeker: user(wrng.Intn(users)),
							Tags:   []string{fmt.Sprintf("t%d", wrng.Intn(tags))},
							K:      1 + wrng.Intn(10),
							Mode:   search.ModeExact,
						}
						if err := svc.DoInto(ctx, req, &resp); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			mutate(30)
		}
	}
}

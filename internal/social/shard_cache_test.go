package social

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/proximity"
	"repro/internal/search"
)

// communityWorld builds a service over `communities` disjoint chains of
// `size` users each (user c<i>u<j>), every user tagging one item with
// the shared tag "pizza". Horizons never cross communities, which is
// what makes edge-scoped invalidation measurable.
func communityWorld(t testing.TB, cfg ServiceConfig, communities, size int) *Service {
	t.Helper()
	cfg.Proximity = proximity.Params{Alpha: 0.8, SelfWeight: 1, MinSigma: 0.01}
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < communities; c++ {
		for u := 0; u < size-1; u++ {
			if err := svc.Befriend(comUser(c, u), comUser(c, u+1), 0.9); err != nil {
				t.Fatal(err)
			}
		}
		for u := 0; u < size; u++ {
			if err := svc.Tag(comUser(c, u), fmt.Sprintf("c%di%d", c, u), "pizza"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	return svc
}

func comUser(c, u int) string { return fmt.Sprintf("c%du%d", c, u) }

func queryAll(t testing.TB, svc *Service, communities, size int) {
	t.Helper()
	ctx := context.Background()
	for c := 0; c < communities; c++ {
		for u := 0; u < size; u++ {
			if _, err := svc.Do(ctx, search.Request{Seeker: comUser(c, u), Tags: []string{"pizza"}, K: 5}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEdgeScopedInvalidationRetainsHitRate is the acceptance test for
// the sharded serving spine: under a mixed workload where one community
// mutates while every community queries, edge-scoped invalidation must
// retain a ≥ 80% hit rate while the old global-generation behaviour
// (EdgeScopeLimit < 0) falls below 20%.
func TestEdgeScopedInvalidationRetainsHitRate(t *testing.T) {
	const communities, size, rounds = 32, 6, 10
	run := func(edgeScopeLimit int) float64 {
		cfg := DefaultServiceConfig()
		cfg.AutoCompactEvery = 0 // compact (and invalidate) on every write
		cfg.SeekerCacheSize = 1024
		cfg.EdgeScopeLimit = edgeScopeLimit
		svc := communityWorld(t, cfg, communities, size)
		queryAll(t, svc, communities, size) // warm every seeker
		for r := 0; r < rounds; r++ {
			// The mutation churn is confined to community 0.
			if err := svc.Befriend(comUser(0, r%(size-1)), comUser(0, r%(size-1)+1), 0.9); err != nil {
				t.Fatal(err)
			}
			queryAll(t, svc, communities, size)
		}
		return svc.Stats().SeekerCache.HitRate()
	}
	scoped := run(0)  // default: edge-scoped
	global := run(-1) // pre-sharding behaviour: every friend compaction is global
	t.Logf("hit rate: edge-scoped %.3f, global-generation %.3f", scoped, global)
	if scoped < 0.8 {
		t.Errorf("edge-scoped hit rate %.3f under mutation churn, want >= 0.8", scoped)
	}
	if global >= 0.2 {
		t.Errorf("global-generation hit rate %.3f, expected < 0.2 (is the control broken?)", global)
	}
	if scoped <= global {
		t.Errorf("edge scoping (%.3f) did not beat global invalidation (%.3f)", scoped, global)
	}
}

// TestEdgeScopedInvalidationSparesUnrelatedSeekers checks the scoping
// mechanics end to end: a mutation in one community must cold-start
// only that community's seekers.
func TestEdgeScopedInvalidationSparesUnrelatedSeekers(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 0
	svc := communityWorld(t, cfg, 2, 4)
	ctx := context.Background()
	do := func(seeker string) *search.Explain {
		resp, err := svc.Do(ctx, search.Request{Seeker: seeker, Tags: []string{"pizza"}, K: 5, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Explain
	}
	do(comUser(0, 0))
	do(comUser(1, 0))
	if err := svc.Befriend(comUser(0, 2), comUser(0, 3), 0.95); err != nil {
		t.Fatal(err)
	}
	if ex := do(comUser(1, 0)); !ex.CacheHit {
		t.Errorf("unrelated community cold-started by the mutation: %+v", ex)
	}
	if ex := do(comUser(0, 0)); ex.CacheHit {
		t.Errorf("mutated community served a stale horizon: %+v", ex)
	}
}

// TestNoCacheBypassesSeekerCache: a NoCache request must neither read
// nor warm the cache.
func TestNoCacheBypassesSeekerCache(t *testing.T) {
	svc := pizzaWorld(t, 0)
	ctx := context.Background()
	req := search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 5, NoCache: true, Explain: true}
	for i := 0; i < 2; i++ {
		resp, err := svc.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Explain.CacheHit {
			t.Fatal("NoCache request reported a cache hit")
		}
	}
	st := svc.Stats()
	if st.SeekerCache.Hits != 0 || st.SeekerCache.Misses != 0 || st.SeekerCacheEntries != 0 {
		t.Fatalf("NoCache requests touched the cache: %+v", st.SeekerCache)
	}
	// The answers themselves must match the cached path.
	cold, err := svc.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := svc.Do(ctx, search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Results, warm.Results) {
		t.Fatalf("NoCache answer %+v != cached answer %+v", cold.Results, warm.Results)
	}
}

// TestCachedPathMatchesColdExactAfterMutations is the edge-scoped
// correctness property test: after ANY sequence of friend/tag
// mutations, the cached-path ModeExact answer must equal a cold
// ModeExact answer (NoCache: independently re-expanded horizon) for
// EVERY seeker — i.e. edge-scoped invalidation never leaves a stale
// horizon behind.
func TestCachedPathMatchesColdExactAfterMutations(t *testing.T) {
	const users, steps = 18, 300
	cfg := DefaultServiceConfig()
	cfg.Proximity = proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.01}
	cfg.AutoCompactEvery = 3  // non-trivial compaction cadence
	cfg.SeekerCacheSize = 150 // three lock stripes
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(11))
	user := func() string { return fmt.Sprintf("u%d", rng.Intn(users)) }
	for step := 0; step < steps; step++ {
		switch rng.Intn(3) {
		case 0:
			a, b := user(), user()
			if a == b {
				continue
			}
			if err := svc.Befriend(a, b, 0.1+0.9*rng.Float64()); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 1:
			if err := svc.Tag(user(), fmt.Sprintf("i%d", rng.Intn(30)), fmt.Sprintf("t%d", rng.Intn(4))); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			// Query a random seeker through the cache — this both checks
			// and warms it, so later mutations have entries to invalidate.
			seeker, tag := user(), fmt.Sprintf("t%d", rng.Intn(4))
			base := search.Request{Seeker: seeker, Tags: []string{tag}, K: 1 + rng.Intn(8), Mode: search.ModeExact}
			cachedReq, coldReq := base, base
			coldReq.NoCache = true
			cached, e1 := svc.Do(ctx, cachedReq)
			cold, e2 := svc.Do(ctx, coldReq)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: error divergence: %v vs %v", step, e1, e2)
			}
			if e1 == nil && !reflect.DeepEqual(cached.Results, cold.Results) {
				t.Fatalf("step %d seeker %s: cached %+v != cold %+v", step, seeker, cached.Results, cold.Results)
			}
		}
	}
	// Final sweep: every known seeker, cached vs cold.
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, seeker := range svc.Users() {
		for tg := 0; tg < 4; tg++ {
			base := search.Request{Seeker: seeker, Tags: []string{fmt.Sprintf("t%d", tg)}, K: 10, Mode: search.ModeExact}
			cold := base
			cold.NoCache = true
			r1, e1 := svc.Do(ctx, base)
			r2, e2 := svc.Do(ctx, cold)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("final sweep %s/t%d: %v vs %v", seeker, tg, e1, e2)
			}
			if e1 == nil && !reflect.DeepEqual(r1.Results, r2.Results) {
				t.Fatalf("final sweep %s/t%d: cached %+v != cold %+v", seeker, tg, r1.Results, r2.Results)
			}
		}
	}
	if st := svc.Stats(); st.SeekerCache.Hits == 0 || st.SeekerCache.Invalidations == 0 {
		t.Fatalf("stream did not exercise the cache: %+v", st.SeekerCache)
	}
}

// TestShardedCacheConcurrentMutations is the -race stress test across
// the cache's lock stripes: concurrent Befriends, tag writes and cached
// lookups interleave, then — once writers quiesce — every seeker's
// cached-path answer must equal a cold ModeExact answer (no stale
// horizon is ever left serveable).
func TestShardedCacheConcurrentMutations(t *testing.T) {
	const users = 16
	cfg := DefaultServiceConfig()
	cfg.Proximity = proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.01}
	cfg.AutoCompactEvery = 2
	cfg.SeekerCacheSize = 256 // four lock stripes
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the universe so queries have names to resolve.
	for u := 0; u < users-1; u++ {
		if err := svc.Befriend(fmt.Sprintf("u%d", u), fmt.Sprintf("u%d", u+1), 0.8); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < users; u++ {
		if err := svc.Tag(fmt.Sprintf("u%d", u), fmt.Sprintf("i%d", u), "t"); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ { // mutators
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 150; i++ {
				a, b := rng.Intn(users), rng.Intn(users)
				if a == b {
					continue
				}
				if i%3 == 0 {
					if err := svc.Tag(fmt.Sprintf("u%d", a), fmt.Sprintf("i%d", rng.Intn(30)), "t"); err != nil {
						t.Error(err)
						return
					}
				} else if err := svc.Befriend(fmt.Sprintf("u%d", a), fmt.Sprintf("u%d", b), 0.1+0.9*rng.Float64()); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ { // readers across all stripes
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				seeker := fmt.Sprintf("u%d", (w*7+i)%users)
				if _, err := svc.Do(ctx, search.Request{Seeker: seeker, Tags: []string{"t"}, K: 5}); err != nil {
					t.Errorf("reader %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiesced: the cached path must agree with a cold re-expansion for
	// every seeker — the "no stale horizon is ever served" assertion.
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < users; u++ {
		seeker := fmt.Sprintf("u%d", u)
		base := search.Request{Seeker: seeker, Tags: []string{"t"}, K: 10, Mode: search.ModeExact}
		cold := base
		cold.NoCache = true
		r1, e1 := svc.Do(ctx, base)
		r2, e2 := svc.Do(ctx, cold)
		if e1 != nil || e2 != nil {
			t.Fatalf("seeker %s: %v / %v", seeker, e1, e2)
		}
		if !reflect.DeepEqual(r1.Results, r2.Results) {
			t.Fatalf("seeker %s: cached %+v != cold %+v (stale horizon survived)", seeker, r1.Results, r2.Results)
		}
	}
}

// TestDuplicateBefriendsDoNotOverflowEdgeScope: re-declaring the same
// edge many times within one compaction window must not count against
// EdgeScopeLimit (which caps DISTINCT edges) and so must not force a
// global invalidation.
func TestDuplicateBefriendsDoNotOverflowEdgeScope(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 500 // one wide compaction window
	cfg.EdgeScopeLimit = 4
	svc := communityWorld(t, cfg, 2, 4)
	ctx := context.Background()
	do := func(seeker string) *search.Explain {
		resp, err := svc.Do(ctx, search.Request{Seeker: seeker, Tags: []string{"pizza"}, K: 5, Explain: true})
		if err != nil {
			t.Fatal(err)
		}
		return resp.Explain
	}
	do(comUser(1, 0)) // warm an unrelated community's seeker
	// 20 re-declarations of one community-0 edge (both orders): one
	// distinct edge, far below the limit of 4.
	for i := 0; i < 10; i++ {
		if err := svc.Befriend(comUser(0, 0), comUser(0, 1), 0.9); err != nil {
			t.Fatal(err)
		}
		if err := svc.Befriend(comUser(0, 1), comUser(0, 0), 0.9); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	if ex := do(comUser(1, 0)); !ex.CacheHit {
		t.Fatal("duplicate edge declarations overflowed the edge scope and invalidated globally")
	}
}

package social

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/proximity"
	"repro/internal/search"
)

func TestSeekerCacheHitsAccumulate(t *testing.T) {
	svc := pizzaWorld(t, 0)
	for i := 0; i < 3; i++ {
		if _, err := searchExact(svc, "alice", []string{"pizza"}, 5); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.SeekerCache.Misses != 1 || st.SeekerCache.Hits != 2 {
		t.Fatalf("cache counters = %+v, want 1 miss then 2 hits", st.SeekerCache)
	}
	if st.SeekerCacheEntries != 1 {
		t.Fatalf("entries = %d, want 1", st.SeekerCacheEntries)
	}
}

// TestWarmSeekersIsNotQueryTraffic: a resize pre-warm installs horizons
// without moving the hit and miss counters /v1/stats reports as query
// traffic — neither for the seekers it warms nor for those it skips
// because they are resident already.
func TestWarmSeekersIsNotQueryTraffic(t *testing.T) {
	svc := pizzaWorld(t, 0)
	ctx := context.Background()
	seekers := []string{"alice", "bob", "carol", "alice", "nobody"}
	for round, want := range []int{3, 0} {
		n, err := svc.WarmSeekers(ctx, seekers)
		if err != nil {
			t.Fatal(err)
		}
		st := svc.Stats()
		if n != want || st.SeekerCacheEntries != 3 {
			t.Fatalf("warm round %d installed %d horizons (%d resident), want %d (3)", round, n, st.SeekerCacheEntries, want)
		}
		if st.SeekerCache.Hits != 0 || st.SeekerCache.Misses != 0 {
			t.Fatalf("warm round %d counted as queries: %+v", round, st.SeekerCache)
		}
	}
	if _, err := searchExact(svc, "alice", []string{"pizza"}, 5); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.SeekerCache.Hits != 1 || st.SeekerCache.Misses != 0 {
		t.Fatalf("first query after the warm: %+v, want one hit", st.SeekerCache)
	}
}

func TestSeekerCacheInvalidatedByBefriend(t *testing.T) {
	svc := pizzaWorld(t, 0) // compact on every write: mutations visible immediately
	res, err := searchExact(svc, "alice", []string{"pizza"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Item == "chain" {
			t.Fatalf("frank's item visible before befriending: %+v", res)
		}
	}
	// A new edge must invalidate alice's cached horizon so the next
	// search sees frank's world.
	if err := svc.Befriend("alice", "frank", 0.9); err != nil {
		t.Fatal(err)
	}
	res, err = searchExact(svc, "alice", []string{"pizza"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		found = found || r.Item == "chain"
	}
	if !found {
		t.Fatalf("cached search missed post-mutation item: %+v", res)
	}
	if st := svc.Stats(); st.SeekerCache.Invalidations == 0 {
		t.Fatalf("no invalidations recorded: %+v", st.SeekerCache)
	}
}

func TestSeekerCacheSurvivesTagOnlyWrites(t *testing.T) {
	svc := pizzaWorld(t, 0)
	if _, err := searchExact(svc, "alice", []string{"pizza"}, 5); err != nil {
		t.Fatal(err)
	}
	// Tags touch the store, not the graph: the cached horizon stays
	// valid AND the new tagging action must still be visible (the tag
	// data flows from the engine snapshot, not the horizon).
	if err := svc.Tag("bob", "dominos", "pizza"); err != nil {
		t.Fatal(err)
	}
	res, err := searchExact(svc, "alice", []string{"pizza"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		found = found || r.Item == "dominos"
	}
	if !found {
		t.Fatalf("tag write invisible through cached horizon: %+v", res)
	}
	st := svc.Stats()
	if st.SeekerCache.Hits == 0 {
		t.Fatalf("tag-only write evicted the horizon: %+v", st.SeekerCache)
	}
	if st.SeekerCache.Invalidations != 0 {
		t.Fatalf("tag-only write invalidated the cache: %+v", st.SeekerCache)
	}
}

func TestSeekerCacheDisabled(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 0
	cfg.SeekerCacheSize = -1
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Befriend("a", "b", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := svc.Tag("b", "i", "t"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := searchExact(svc, "a", []string{"t"}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc.Stats(); st.SeekerCache.Hits != 0 || st.SeekerCache.Misses != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", st.SeekerCache)
	}
}

func TestServingConfigValidation(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.BatchWorkers = -1
	if _, err := NewService(cfg); err == nil {
		t.Fatal("negative BatchWorkers accepted")
	}
	// Zero values mean defaults.
	svc, err := NewService(ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if svc.cfg.SeekerCacheSize != DefaultSeekerCacheSize || svc.cfg.BatchWorkers != DefaultBatchWorkers {
		t.Fatalf("defaults not applied: %+v", svc.cfg)
	}
}

// TestCachedMatchesUncachedUnderMutations drives a cached and an
// uncached service through an identical randomized stream of
// interleaved mutations and searches; every answer must agree.
func TestCachedMatchesUncachedUnderMutations(t *testing.T) {
	mk := func(cacheSize int) *Service {
		cfg := DefaultServiceConfig()
		cfg.Proximity = proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.01}
		cfg.AutoCompactEvery = 3 // non-trivial compaction cadence
		cfg.SeekerCacheSize = cacheSize
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	cached, uncached := mk(8), mk(-1)
	rng := rand.New(rand.NewSource(7))
	user := func() string { return fmt.Sprintf("u%d", rng.Intn(12)) }
	for step := 0; step < 400; step++ {
		switch rng.Intn(4) {
		case 0:
			a, b := user(), user()
			if a == b {
				continue
			}
			w := 0.1 + 0.9*rng.Float64()
			e1, e2 := cached.Befriend(a, b, w), uncached.Befriend(a, b, w)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: befriend divergence: %v vs %v", step, e1, e2)
			}
		case 1:
			u, i, tg := user(), fmt.Sprintf("i%d", rng.Intn(20)), fmt.Sprintf("t%d", rng.Intn(4))
			e1, e2 := cached.Tag(u, i, tg), uncached.Tag(u, i, tg)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: tag divergence: %v vs %v", step, e1, e2)
			}
		default:
			seeker := user()
			tags := []string{fmt.Sprintf("t%d", rng.Intn(4))}
			k := 1 + rng.Intn(6)
			r1, e1 := searchExact(cached, seeker, tags, k)
			r2, e2 := searchExact(uncached, seeker, tags, k)
			if (e1 == nil) != (e2 == nil) {
				t.Fatalf("step %d: search divergence: %v vs %v", step, e1, e2)
			}
			if e1 != nil {
				continue
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("step %d: cached %+v != uncached %+v", step, r1, r2)
			}
			// explain:true — the cached service merges a materialized
			// horizon, the uncached one expands lazily; beyond the cache
			// provenance they must account for the same work, byte for byte.
			req := search.Request{Seeker: seeker, Tags: tags, K: k, Mode: search.ModeExact, Explain: true}
			x1, e1 := cached.Do(context.Background(), req)
			x2, e2 := uncached.Do(context.Background(), req)
			if e1 != nil || e2 != nil {
				t.Fatalf("step %d: explain search: %v, %v", step, e1, e2)
			}
			if x1.Explain.HorizonUsers != x1.Explain.UsersSettled || x2.Explain.HorizonUsers != 0 {
				t.Fatalf("step %d: horizon of %d users, %d settled (uncached: horizon of %d)",
					step, x1.Explain.HorizonUsers, x1.Explain.UsersSettled, x2.Explain.HorizonUsers)
			}
			x1.Explain.HorizonUsers, x1.Explain.CacheHit, x1.Explain.CacheGeneration = 0, false, 0
			b1, _ := json.Marshal(x1)
			b2, _ := json.Marshal(x2)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("step %d: explained answers differ:\n  cached %s\nuncached %s", step, b1, b2)
			}
		}
	}
	if st := cached.Stats(); st.SeekerCache.Hits == 0 || st.SeekerCache.Invalidations == 0 {
		t.Fatalf("stream did not exercise the cache: %+v", st.SeekerCache)
	}
}

func TestDoBatchMatchesSequential(t *testing.T) {
	svc := pizzaWorld(t, 0)
	queries := []search.Request{
		{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact},
		{Seeker: "nobody", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact},
		{Seeker: "bob", Tags: []string{"pizza"}, K: 2, Mode: search.ModeExact},
		{Seeker: "alice", Tags: []string{"quantum"}, K: 1, Mode: search.ModeExact},
		{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact},
	}
	out := svc.DoBatch(context.Background(), queries)
	if len(out) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(out), len(queries))
	}
	if out[1].Err == nil || out[3].Err == nil {
		t.Fatalf("bad queries did not fail: %+v", out)
	}
	if out[0].Err != nil || out[2].Err != nil || out[4].Err != nil {
		t.Fatalf("good queries failed: %+v", out)
	}
	// Batch answers must equal sequential answers, in input order.
	for _, i := range []int{0, 2, 4} {
		want, err := searchExact(svc, queries[i].Seeker, queries[i].Tags, queries[i].K)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out[i].Response.Results, want) {
			t.Fatalf("query %d: batch %+v != sequential %+v", i, out[i].Response.Results, want)
		}
	}
	if got := svc.DoBatch(context.Background(), nil); len(got) != 0 {
		t.Fatalf("nil batch returned %+v", got)
	}
}

// TestCacheOffDoBatchMatchesDo: with the seeker cache off (or opted out
// of per request with NoCache), a batch query runs the same lazy
// expansion as a single one, so every DoBatch entry — same-seeker runs
// on one worker included — carries the items and score bits of Do on
// that request.
func TestCacheOffDoBatchMatchesDo(t *testing.T) {
	mk := func(cacheSize int) *Service {
		cfg := DefaultServiceConfig()
		cfg.Proximity = proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.01}
		cfg.AutoCompactEvery = 1 << 20
		cfg.SeekerCacheSize = cacheSize
		cfg.BatchWorkers = 2
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 60; i++ {
			a, b := rng.Intn(16), rng.Intn(16)
			if a != b {
				if err := svc.Befriend(fmt.Sprintf("u%d", a), fmt.Sprintf("u%d", b), 0.1+0.9*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			if err := svc.Tag(fmt.Sprintf("u%d", rng.Intn(16)), fmt.Sprintf("i%d", rng.Intn(24)), fmt.Sprintf("t%d", rng.Intn(4))); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Flush(); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	rng := rand.New(rand.NewSource(5))
	var reqs []search.Request
	for len(reqs) < 48 {
		// Runs of one seeker, so a worker answers several in a row.
		seeker := fmt.Sprintf("u%d", rng.Intn(16))
		for n := 1 + rng.Intn(4); n > 0; n-- {
			req := search.Request{
				Seeker: seeker,
				Tags:   []string{fmt.Sprintf("t%d", rng.Intn(4)), fmt.Sprintf("t%d", rng.Intn(4))},
				K:      1 + rng.Intn(6),
			}
			if rng.Intn(3) == 0 {
				beta := rng.Float64()
				req.Beta = &beta
			}
			reqs = append(reqs, req)
		}
	}
	for _, c := range []struct {
		name    string
		svc     *Service
		noCache bool
	}{
		{"cache off", mk(-1), false},
		{"no_cache", mk(8), true},
	} {
		batch := make([]search.Request, len(reqs))
		for i, r := range reqs {
			r.NoCache = c.noCache
			batch[i] = r
		}
		out := c.svc.DoBatch(context.Background(), batch)
		answered := 0
		for i, r := range batch {
			want, err := c.svc.Do(context.Background(), r)
			if (err == nil) != (out[i].Err == nil) {
				t.Fatalf("%s: query %d: batch err %v, Do err %v", c.name, i, out[i].Err, err)
			}
			if err != nil {
				continue
			}
			answered++
			got := out[i].Response.Results
			if len(got) != len(want.Results) {
				t.Fatalf("%s: query %d: batch %+v != Do %+v", c.name, i, got, want.Results)
			}
			for j := range got {
				if got[j].Item != want.Results[j].Item || math.Float64bits(got[j].Score) != math.Float64bits(want.Results[j].Score) {
					t.Fatalf("%s: query %d rank %d: batch %+v != Do %+v", c.name, i, j, got[j], want.Results[j])
				}
			}
		}
		if answered < len(batch)/2 {
			t.Fatalf("%s: only %d of %d queries answered; the corpus does not exercise the merge", c.name, answered, len(batch))
		}
		if st := c.svc.Stats(); st.SeekerCache.Hits != 0 || st.SeekerCache.Misses != 0 {
			t.Fatalf("%s: cache recorded traffic: %+v", c.name, st.SeekerCache)
		}
	}
}

// TestDoBatchConcurrentWithMutations hammers DoBatch against
// concurrent writers; run with -race.
func TestDoBatchConcurrentWithMutations(t *testing.T) {
	svc := pizzaWorld(t, 2)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			svc.Befriend(fmt.Sprintf("w%d", i%5), "alice", 0.5)
			svc.Tag(fmt.Sprintf("w%d", i%5), fmt.Sprintf("wi%d", i%7), "pizza")
		}
	}()
	for round := 0; round < 20; round++ {
		out := svc.DoBatch(context.Background(), []search.Request{
			{Seeker: "alice", Tags: []string{"pizza"}, K: 5, Mode: search.ModeExact},
			{Seeker: "bob", Tags: []string{"pizza"}, K: 5, Mode: search.ModeExact},
			{Seeker: "dave", Tags: []string{"pizza"}, K: 5, Mode: search.ModeExact},
		})
		for i, r := range out {
			if r.Err != nil {
				t.Errorf("round %d query %d: %v", round, i, r.Err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

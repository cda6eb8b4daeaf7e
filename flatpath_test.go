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

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/search"
	"repro/internal/social"
	"repro/internal/tagstore"
)

// TestCachedReadPathZeroAlloc: after the seeker cache and the arenas
// are warm, a full serving workload through DoInto must perform zero
// heap allocations, in every mode. This is the programmatic twin of
// benchgate's allocs/op gates on BenchmarkServingCachedSearch and
// BenchmarkServingModes.
func TestCachedReadPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	svc, reqs := servingService(t, 0)
	var resp search.Response
	ctx := context.Background()
	for _, mode := range []search.Mode{search.ModeExact, search.ModeAuto, search.ModeApprox} {
		t.Run(mode.String(), func(t *testing.T) {
			for i := range reqs {
				reqs[i].Mode = mode
			}
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
				t.Fatalf("warm cached read path in mode %s allocated %.2f times per %d-query workload, want 0", mode, avg, len(reqs))
			}
		})
	}
}

// TestFreshEngineCachedMergeZeroAlloc: every compaction builds a new
// core.Engine, and the first cached query on it must find the merge's
// working state (candidate table, rank array, cursors) warm from the
// engines before it, allocating nothing but the engine itself.
func TestFreshEngineCachedMergeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	svc, _ := servingService(t, 0)
	g, st, _, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Proximity: proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.1}, Beta: 1}
	eng, err := core.NewEngine(g, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := eng.MaterializeHorizon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Seeker: 0, Tags: []tagstore.TagID{0, 1}, K: 10}
	opts := core.Options{RefineScores: true}
	var ans core.Answer
	if err := eng.SocialMergeWithHorizonInto(q, h, opts, &ans); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	avg := testing.AllocsPerRun(10, func() {
		fresh, err := core.NewEngine(g, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.SocialMergeWithHorizonInto(q, h, opts, &ans); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 1 {
		t.Fatalf("a new engine and its first cached merge allocated %.2f times, want 1 (the engine)", avg)
	}
}

// TestPropertyFlatHorizonMatchesPointerPath: on random graphs mutated
// in random rounds, a ModeExact answer served from the flat
// materialized horizon (cache miss installing it, then a cache hit
// replaying it — both through the tag-pivoted join) must equal the
// answer from the lazy pointer-graph expansion (NoCache) bit-for-bit:
// same items, same float64 scores, same certified ScoreBound, same
// Exact flag, same access accounting. Queries repeat a tag and name one
// nobody in the horizon used; the variants cover β < 1 and truncated
// horizons (MaxHorizonUsers, where the lazy path is no reference and
// the per-user probe over the same horizon takes its place, see
// crossCheckKernels). Each round ends with a concurrent DoInto storm so
// `go test -race` exercises the pooled arenas under contention.
func TestPropertyFlatHorizonMatchesPointerPath(t *testing.T) {
	const (
		users = 24
		items = 40
		tags  = 5
	)
	ctx := context.Background()
	user := func(i int) string { return fmt.Sprintf("u%d", i) }
	variants := []struct {
		beta       float64
		maxHorizon int
	}{{1, 0}, {1, 0}, {0.6, 0}, {1, 6}, {0.6, 6}}
	for vi, variant := range variants {
		seed := int64(vi + 1)
		rng := rand.New(rand.NewSource(seed))
		cfg := social.DefaultServiceConfig()
		cfg.Proximity = proximity.Params{Alpha: 0.7, SelfWeight: 1, MinSigma: 0.02}
		cfg.Beta = variant.beta
		cfg.MaxHorizonUsers = variant.maxHorizon
		cfg.AutoCompactEvery = 0 // every write compacts and invalidates
		cfg.SeekerCacheSize = 256
		svc, err := social.NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A tag only a friendless user has: in the vocabulary, in no
		// other seeker's horizon.
		if err := svc.Tag("hermit", "i0", "rare"); err != nil {
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
				switch rng.Intn(4) {
				case 0:
					qtags = append(qtags, qtags[0])
				case 1:
					qtags = append(qtags, "rare")
				}
				base := search.Request{
					Seeker:  user(s),
					Tags:    qtags,
					K:       1 + rng.Intn(10),
					Mode:    search.ModeExact,
					Explain: true,
				}
				miss, err := svc.Do(ctx, base) // miss: materialize + install flat horizon
				if err != nil {
					t.Fatal(err)
				}
				hit, err := svc.Do(ctx, base) // hit: replay the cached flat horizon
				if err != nil {
					t.Fatal(err)
				}
				ptr := miss // a truncated horizon has no lazy twin: hold the hit to the miss
				if variant.maxHorizon == 0 {
					ptrReq := base
					ptrReq.NoCache = true
					if ptr, err = svc.Do(ctx, ptrReq); err != nil { // lazy pointer-graph expansion
						t.Fatal(err)
					}
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
					fx, px := flat.resp.Explain, ptr.Explain
					if fx.UsersSettled != px.UsersSettled || fx.SequentialAccesses != px.SequentialAccesses || fx.RandomAccesses != px.RandomAccesses {
						t.Fatalf("seed %d round %d %s/%v (%s): accounting %d/%d/%d flat vs %d/%d/%d pointer", seed, round, base.Seeker, qtags, flat.name,
							fx.UsersSettled, fx.SequentialAccesses, fx.RandomAccesses, px.UsersSettled, px.SequentialAccesses, px.RandomAccesses)
					}
				}
			}
			crossCheckKernels(t, svc, cfg, rng)
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
							Tags:   []string{fmt.Sprintf("t%d", wrng.Intn(tags)), fmt.Sprintf("t%d", wrng.Intn(tags))},
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

// crossCheckKernels holds the three ways the engine settles a whole
// horizon against each other on the service's current snapshot — a
// store many Store.Merge calls away from a Build: the tag-pivoted join,
// the per-user probe over the same materialized horizon (a MaxUsers
// budget past the horizon's end never fires but keeps the merge on the
// settle-one-user loop), and, where the horizon is complete, the lazy
// expansion. Answers, Exact flags and access counters must all be
// equal; the truncated horizons reach the residual certification.
func crossCheckKernels(t *testing.T, svc *social.Service, cfg social.ServiceConfig, rng *rand.Rand) {
	t.Helper()
	g, st, _, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tag := func() tagstore.TagID { return tagstore.TagID(rng.Intn(st.NumTags())) }
	for s := 0; s < g.NumUsers(); s++ {
		beta := cfg.Beta
		if s%8 == 0 {
			beta = 0 // pure-global scoring: the horizon is walked, no list is read
		}
		eng, err := core.NewEngine(g, st, core.Config{Proximity: cfg.Proximity, Beta: beta})
		if err != nil {
			t.Fatal(err)
		}
		first := tag()
		q := core.Query{Seeker: graph.UserID(s), Tags: []tagstore.TagID{first, tag(), first}, K: 1 + rng.Intn(10)}
		for _, maxUsers := range [...]int{0, 1 + rng.Intn(8)} {
			h, err := eng.MaterializeHorizon(q.Seeker, maxUsers)
			if err != nil {
				t.Fatal(err)
			}
			join, err := eng.SocialMergeWithHorizon(q, h, core.Options{RefineScores: true})
			if err != nil {
				t.Fatal(err)
			}
			probe, err := eng.SocialMergeWithHorizon(q, h, core.Options{RefineScores: true, MaxUsers: h.Size() + 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(join, probe) {
				t.Fatalf("%+v over %d of its horizon (residual %g):\n join %+v\nprobe %+v", q, h.Size(), h.Residual(), join, probe)
			}
			if h.Residual() > 0 {
				continue
			}
			lazy, err := eng.SocialMerge(q, core.Options{RefineScores: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(join, lazy) {
				t.Fatalf("%+v over its whole horizon of %d:\njoin %+v\nlazy %+v", q, h.Size(), join, lazy)
			}
		}
	}
}

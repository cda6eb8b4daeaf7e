package repro

// Cross-algorithm equivalence properties: on randomized corpora the
// four exact algorithms — SocialMerge, ContextMerge, SocialTA and
// ExactSocial — must return the same top-k item set, and the cached
// serving path (seeker horizons via internal/qcache inside
// internal/social) must keep agreeing with exact ground truth through
// interleaved friend/tag mutations.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/social"
	"repro/internal/tagstore"
	"repro/internal/topk"
	"repro/internal/vocab"
)

// equivCorpus builds a small randomized corpus for a seed.
func equivCorpus(t testing.TB, seed int64) *gen.Dataset {
	t.Helper()
	p := gen.CorpusParams{
		Name: "equiv",
		Graph: gen.GraphParams{
			Kind: gen.BarabasiAlbert, NumUsers: 60, M: 2,
			MinWeight: 0.3, MaxWeight: 1,
		},
		NumItems:       120,
		NumTags:        20,
		TriplesPerUser: 12,
		TagZipfS:       1.1,
		ItemZipfS:      1.1,
		Homophily:      0.5,
	}
	ds, err := gen.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// sameTopKSet checks an answer against exact ground truth at the set
// level: every returned item must carry an exact score matching the
// exact top-k score multiset (ties at the boundary may swap items, so
// positions and identities beyond the score multiset are not compared).
func sameTopKSet(t testing.TB, label string, e *core.Engine, q core.Query, got core.Answer) bool {
	t.Helper()
	full, err := e.ExactSocial(core.Query{Seeker: q.Seeker, Tags: q.Tags, K: e.Store().NumItems()})
	if err != nil {
		t.Logf("%s: full exact: %v", label, err)
		return false
	}
	exactScore := make(map[int32]float64, len(full.Results))
	for _, r := range full.Results {
		exactScore[r.Item] = r.Score
	}
	wantLen := q.K
	if len(full.Results) < wantLen {
		wantLen = len(full.Results)
	}
	if len(got.Results) != wantLen {
		t.Logf("%s: %d results, want %d", label, len(got.Results), wantLen)
		return false
	}
	scores := make([]float64, 0, wantLen)
	for i, r := range got.Results {
		es, ok := exactScore[r.Item]
		if !ok {
			t.Logf("%s: rank %d item %d not in exact answer", label, i, r.Item)
			return false
		}
		if r.Score > es+1e-9 {
			t.Logf("%s: rank %d reported %g > exact %g", label, i, r.Score, es)
			return false
		}
		scores = append(scores, es)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	for i, es := range scores {
		if diff := es - full.Results[i].Score; diff > 1e-9 || diff < -1e-9 {
			t.Logf("%s: sorted rank %d exact %g, want %g", label, i, es, full.Results[i].Score)
			return false
		}
	}
	return true
}

// TestPropertyAllAlgorithmsAgree: the four exact algorithms and the
// cached-horizon execution return the same top-k sets on randomized
// corpora, across proximity/beta settings.
func TestPropertyAllAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ds := equivCorpus(t, seed)
		cfg := core.Config{
			Proximity: proximity.Params{
				Alpha:      []float64{1, 0.8, 0.6}[rng.Intn(3)],
				SelfWeight: 1,
				MinSigma:   0.01,
			},
			Beta: []float64{1, 0.7, 0.3}[rng.Intn(3)],
		}
		e, err := core.NewEngine(ds.Graph, ds.Store, cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		e.AttachItemIndex(core.BuildItemIndex(ds.Store))
		for trial := 0; trial < 3; trial++ {
			q := core.Query{
				Seeker: graph.UserID(rng.Intn(ds.Graph.NumUsers())),
				Tags: []tagstore.TagID{
					tagstore.TagID(rng.Intn(ds.Store.NumTags())),
					tagstore.TagID(rng.Intn(ds.Store.NumTags())),
				},
				K: 1 + rng.Intn(10),
			}
			sm, err := e.SocialMerge(q, core.Options{RefineScores: true})
			if err != nil || !sm.Exact || !sameTopKSet(t, "SocialMerge", e, q, sm) {
				t.Logf("seed %d trial %d: SocialMerge (err %v)", seed, trial, err)
				return false
			}
			cm, err := e.ContextMerge(q, core.Options{})
			if err != nil || !cm.Exact || !sameTopKSet(t, "ContextMerge", e, q, cm) {
				t.Logf("seed %d trial %d: ContextMerge (err %v)", seed, trial, err)
				return false
			}
			ta, err := e.SocialTA(q, core.Options{})
			if err != nil || !ta.Exact || !sameTopKSet(t, "SocialTA", e, q, ta) {
				t.Logf("seed %d trial %d: SocialTA (err %v)", seed, trial, err)
				return false
			}
			// The cached serving path: materialize once, query twice
			// (second use exercises horizon reuse).
			h, err := e.MaterializeHorizon(q.Seeker, 0)
			if err != nil {
				t.Logf("seed %d trial %d: MaterializeHorizon: %v", seed, trial, err)
				return false
			}
			for rep := 0; rep < 2; rep++ {
				hm, err := e.SocialMergeWithHorizon(q, h, core.Options{RefineScores: true})
				if err != nil || !sameTopKSet(t, "SocialMergeWithHorizon", e, q, hm) {
					t.Logf("seed %d trial %d rep %d: horizon path (err %v)", seed, trial, rep, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestV2ModeEquivalence: every /v2 mode runs the one serving path. On
// unbounded horizons, /v2/search and /v2/search/batch answer auto (sent
// as the default, no mode), exact and approx with what the ExactSocial
// oracle computes on the same snapshot, through seeded rounds of
// friendship and tag mutations, and the three modes, single and in a
// batch, give byte-identical results and Explain apart from the echoed
// mode.
func TestV2ModeEquivalence(t *testing.T) {
	modes := []string{"", "exact", "approx"}
	prox := proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.01}

	t.Run("unbounded", func(t *testing.T) {
		ds := equivCorpus(t, 42)
		cfg := social.DefaultServiceConfig()
		cfg.Proximity = prox
		svc, srv := v2Service(t, ds, cfg)
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 4; round++ {
			if round > 0 {
				for op := 0; op < 25; op++ {
					u := fmt.Sprintf("u%d", rng.Intn(ds.Graph.NumUsers()))
					var err error
					if rng.Intn(2) == 0 {
						err = svc.Befriend(u, fmt.Sprintf("u%d", rng.Intn(ds.Graph.NumUsers())), 0.3+0.7*rng.Float64())
					} else {
						err = svc.Tag(u, fmt.Sprintf("i%d", rng.Intn(ds.Store.NumItems())), fmt.Sprintf("t%d", rng.Intn(ds.Store.NumTags())))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if err := svc.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			g, st, names, err := svc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			eng, err := core.NewEngine(g, st, core.Config{Proximity: prox, Beta: cfg.Beta})
			if err != nil {
				t.Fatal(err)
			}
			var batch []server.V2Query
			var want [][]search.Result
			var modeless []string
			for trial := 0; trial < 6; trial++ {
				seeker, tag, k := rng.Intn(g.NumUsers()), rng.Intn(st.NumTags()), 1+rng.Intn(8)
				oracle, err := eng.ExactSocial(core.Query{Seeker: graph.UserID(seeker), Tags: []tagstore.TagID{tagstore.TagID(tag)}, K: k})
				if err != nil {
					t.Fatal(err)
				}
				exact := make([]search.Result, len(oracle.Results))
				for i, r := range oracle.Results {
					name, _ := names.Items.Name(r.Item)
					exact[i] = search.Result{Item: name, Score: r.Score}
				}
				q := server.V2Query{Seeker: fmt.Sprintf("u%d", seeker), Tags: []string{fmt.Sprintf("t%d", tag)}, K: k, Explain: true}
				// Warm the seeker's horizon, so every mode below is a cache
				// hit and Explain may not differ in CacheHit.
				postV2(t, srv, "/v2/search", q, &server.V2SearchResponse{})
				for _, mode := range modes {
					q.Mode = mode
					var resp server.V2SearchResponse
					postV2(t, srv, "/v2/search", q, &resp)
					label := fmt.Sprintf("round %d trial %d mode %q", round, trial, mode)
					checkExactAnswer(t, label, mode, resp.Results, resp.Explain, exact)
					a := modelessAnswer(t, resp.Results, resp.Explain)
					if mode != "" && a != modeless[len(modeless)-1] {
						t.Fatalf("%s differs from auto's\n got %s\nwant %s", label, a, modeless[len(modeless)-1])
					}
					batch, want, modeless = append(batch, q), append(want, exact), append(modeless, a)
				}
			}
			var resp server.V2BatchResponse
			postV2(t, srv, "/v2/search/batch", server.V2BatchRequest{Queries: batch}, &resp)
			for i, e := range resp.Results {
				if e.Error != "" {
					t.Fatalf("round %d batch entry %d: %s", round, i, e.Error)
				}
				label := fmt.Sprintf("round %d batch entry %d", round, i)
				checkExactAnswer(t, label, batch[i].Mode, e.Results, e.Explain, want[i])
				if a := modelessAnswer(t, e.Results, e.Explain); a != modeless[i] {
					t.Fatalf("%s differs from its single query\n got %s\nwant %s", label, a, modeless[i])
				}
			}
		}
	})
}

// TestServingModesAgree: on the serving benchmarks' corpus and
// workload, auto, exact and approx run the one exact path, so every
// request answers the same items with the same score bits (the JSON
// form of a float64 round-trips exactly) and the same Explain apart
// from the echoed mode: Exact, ScoreBound, HorizonUsers, UsersSettled
// and the access counts. Cold (cache off) and over warm cached
// horizons. Timing the modes against each other could only measure
// the machine; a mode that grows a path of its own fails here.
func TestServingModesAgree(t *testing.T) {
	modes := []search.Mode{search.ModeExact, search.ModeAuto, search.ModeApprox}
	for _, tc := range []struct {
		name      string
		cacheSize int
	}{{"cold", -1}, {"cached", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			svc, reqs := servingService(t, tc.cacheSize)
			ctx := context.Background()
			// One pass first, so every mode below finds the same cache state.
			for _, req := range reqs {
				if _, err := svc.Do(ctx, req); err != nil {
					t.Fatal(err)
				}
			}
			for i, req := range reqs {
				req.Explain = true
				var exact string
				for _, mode := range modes {
					req.Mode = mode
					resp, err := svc.Do(ctx, req)
					if err != nil {
						t.Fatalf("request %d mode %s: %v", i, mode, err)
					}
					if ex := resp.Explain; ex == nil || !ex.Exact || ex.Mode != mode.String() {
						t.Fatalf("request %d mode %s: explain %+v, want exact in that mode", i, mode, ex)
					}
					got := modelessAnswer(t, resp.Results, resp.Explain)
					if mode == search.ModeExact {
						exact = got
					} else if got != exact {
						t.Fatalf("request %d: mode %s differs from exact\n got %s\nwant %s", i, mode, got, exact)
					}
				}
			}
		})
	}
}

// corpusNames names a generated id-space corpus: users u<id>, items
// i<id>, tags t<id>.
func corpusNames(ds *gen.Dataset) *vocab.Set {
	names := vocab.NewSet()
	for i := 0; i < ds.Graph.NumUsers(); i++ {
		names.Users.MustAdd(fmt.Sprintf("u%d", i))
	}
	for i := 0; i < ds.Store.NumItems(); i++ {
		names.Items.MustAdd(fmt.Sprintf("i%d", i))
	}
	for i := 0; i < ds.Store.NumTags(); i++ {
		names.Tags.MustAdd(fmt.Sprintf("t%d", i))
	}
	return names
}

// v2Service restores a named generated corpus as a service behind an
// HTTP server.
func v2Service(t *testing.T, ds *gen.Dataset, cfg social.ServiceConfig) (*social.Service, *server.Server) {
	t.Helper()
	svc, err := social.Restore(cfg, ds.Graph, ds.Store, corpusNames(ds))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	return svc, srv
}

// postV2 posts body as JSON to path and decodes a 200 answer into out.
func postV2(t *testing.T, srv http.Handler, path string, body, out interface{}) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d %s", path, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
		t.Fatal(err)
	}
}

// checkExactAnswer holds one served answer to the oracle's: same items
// in the same order, same scores, certified Exact, the mode echoed.
func checkExactAnswer(t *testing.T, label, mode string, got []search.Result, ex *search.Explain, want []search.Result) {
	t.Helper()
	m, err := search.ParseMode(mode)
	if err != nil {
		t.Fatal(err)
	}
	if ex == nil || !ex.Exact || ex.Mode != m.String() {
		t.Fatalf("%s: explain %+v, want exact in mode %s", label, ex, m)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, oracle %d", label, len(got), len(want))
	}
	for i, r := range got {
		if r.Item != want[i].Item || !approxEqual(r.Score, want[i].Score) {
			t.Fatalf("%s rank %d: got %+v, oracle %+v", label, i, r, want[i])
		}
	}
}

// modelessAnswer renders results and Explain as JSON with the echoed
// mode blanked.
func modelessAnswer(t *testing.T, results []search.Result, ex *search.Explain) string {
	t.Helper()
	if ex == nil {
		t.Fatal("explain missing")
	}
	e := *ex
	e.Mode = ""
	raw, err := json.Marshal(struct {
		Results []search.Result
		Explain search.Explain
	}{results, e})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func approxEqual(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

// TestPropertyCachedServiceMatchesExact: a name-addressed service with
// the seeker cache enabled stays consistent with ExactSocial ground
// truth (recomputed from its own snapshot) through a randomized stream
// of interleaved Befriend/Tag mutations and searches.
func TestPropertyCachedServiceMatchesExact(t *testing.T) {
	prox := proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.01}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := social.DefaultServiceConfig()
		cfg.Proximity = prox
		cfg.AutoCompactEvery = 1 + rng.Intn(4)
		cfg.SeekerCacheSize = 4
		svc, err := social.NewService(cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		user := func() string { return fmt.Sprintf("u%d", rng.Intn(10)) }
		for step := 0; step < 120; step++ {
			switch rng.Intn(3) {
			case 0:
				a, b := user(), user()
				if a != b {
					if err := svc.Befriend(a, b, 0.2+0.8*rng.Float64()); err != nil {
						t.Logf("seed %d step %d: befriend: %v", seed, step, err)
						return false
					}
				}
			default:
				if err := svc.Tag(user(), fmt.Sprintf("i%d", rng.Intn(15)), fmt.Sprintf("t%d", rng.Intn(3))); err != nil {
					t.Logf("seed %d step %d: tag: %v", seed, step, err)
					return false
				}
			}
			if step%10 != 9 {
				continue
			}
			// Snapshot the service state and verify a search against an
			// independently built exact engine over that same state.
			g, st, names, err := svc.Snapshot()
			if err != nil {
				t.Logf("seed %d step %d: snapshot: %v", seed, step, err)
				return false
			}
			eng, err := core.NewEngine(g, st, core.Config{Proximity: prox, Beta: cfg.Beta})
			if err != nil {
				t.Logf("seed %d step %d: engine: %v", seed, step, err)
				return false
			}
			seeker := user()
			uid, ok := names.Users.ID(seeker)
			if !ok {
				continue
			}
			tag := fmt.Sprintf("t%d", rng.Intn(3))
			tid, ok := names.Tags.ID(tag)
			if !ok {
				continue
			}
			k := 1 + rng.Intn(5)
			resp, err := svc.Do(context.Background(), search.Request{
				Seeker: seeker, Tags: []string{tag}, K: k, Mode: search.ModeExact,
			})
			got := resp.Results
			if err != nil {
				t.Logf("seed %d step %d: search: %v", seed, step, err)
				return false
			}
			// Convert named results to id-space and reuse the set check.
			idResults := make([]topk.Result, len(got))
			for i, r := range got {
				id, ok := names.Items.ID(r.Item)
				if !ok {
					t.Logf("seed %d step %d: unknown item %q", seed, step, r.Item)
					return false
				}
				idResults[i] = topk.Result{Item: id, Score: r.Score}
			}
			q := core.Query{Seeker: uid, Tags: []tagstore.TagID{tid}, K: k}
			if !sameTopKSet(t, "cached service", eng, q, core.Answer{Results: idResults}) {
				t.Logf("seed %d step %d: cached service diverged (seeker %s tag %s k %d)", seed, step, seeker, tag, k)
				return false
			}
		}
		st := svc.Stats()
		if st.SeekerCache.Hits+st.SeekerCache.Misses == 0 {
			t.Logf("seed %d: cache never exercised", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

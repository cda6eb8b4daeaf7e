package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/search"
	"repro/internal/tagstore"
)

// TestRefineScoresMatchExact: with RefineScores the reported scores are
// the exact (floored-model) scores, not just lower bounds.
func TestRefineScoresMatchExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Proximity: proximity.Params{Alpha: 0.7, SelfWeight: 1, MinSigma: 0.05},
			Beta:      1,
		}
		e, ds := randomCorpusEngine(t, seed, cfg)
		for trial := 0; trial < 3; trial++ {
			q := Query{
				Seeker: graph.UserID(rng.Intn(ds.Graph.NumUsers())),
				Tags:   []tagstore.TagID{tagstore.TagID(rng.Intn(20))},
				K:      1 + rng.Intn(8),
			}
			refined, err := e.SocialMerge(q, Options{RefineScores: true})
			if err != nil || !refined.Exact {
				return false
			}
			full, err := e.ExactSocial(Query{Seeker: q.Seeker, Tags: q.Tags, K: e.Store().NumItems()})
			if err != nil {
				return false
			}
			exactScore := map[int32]float64{}
			for _, r := range full.Results {
				exactScore[r.Item] = r.Score
			}
			for _, r := range refined.Results {
				if math.Abs(r.Score-exactScore[r.Item]) > 1e-9 {
					t.Logf("seed %d: item %d refined %g exact %g", seed, r.Item, r.Score, exactScore[r.Item])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRefineScoresStillRespectsCutoffs: refinement is orthogonal to the
// approximation knobs.
func TestRefineScoresStillRespectsCutoffs(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	ans, err := e.SocialMerge(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3},
		Options{RefineScores: true, MaxUsers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exact {
		t.Fatal("cutoff with refinement still certified")
	}
	if ans.UsersSettled != 1 {
		t.Fatalf("settled %d users, want 1", ans.UsersSettled)
	}
}

// TestRefineScoresSettlesWholeHorizon: without a floor, refinement
// consumes the connected component.
func TestRefineScoresSettlesWholeHorizon(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	ans, err := e.SocialMerge(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 1},
		Options{RefineScores: true})
	if err != nil {
		t.Fatal(err)
	}
	// seeker 0's component is {0,1,2}
	if ans.UsersSettled != 3 {
		t.Fatalf("settled %d users, want full component of 3", ans.UsersSettled)
	}
	if !ans.Exact {
		t.Fatal("refined full run not certified")
	}
	// exact score of item 0 is 1.0
	if len(ans.Results) == 0 || math.Abs(ans.Results[0].Score-1.0) > 1e-12 {
		t.Fatalf("refined top = %v, want exact score 1.0", ans.Results)
	}
}

// TestRefineJoinMatchesSettleLoop: over a materialized horizon the
// tag-pivoted join returns what the settle-one-user loop returns over
// the same horizon (a MaxUsers budget past its end never fires but keeps
// the merge on mainLoop) and what the lazy expansion returns — results,
// Exact and every access counter — for β = 1, a blend and pure-global
// scoring, with a repeated query tag.
// Each query also runs with k = every item, so every candidate with a
// positive score is compared, not only the top few.
// Each corpus is queried as built and again after a chain of merges, so
// the join also reads posting lists a merge wrote beside ones it shared.
func TestRefineJoinMatchesSettleLoop(t *testing.T) {
	for seed, beta := range [...]float64{1, 0.6, 0, 1} {
		cfg := Config{
			Proximity: proximity.Params{Alpha: 0.7, SelfWeight: 1, MinSigma: 0.05},
			Beta:      beta,
		}
		e, ds := randomCorpusEngine(t, int64(seed), cfg)
		checkJoinMatchesSettleLoop(t, e, int64(seed))
		g, st := mergedCorpus(t, ds)
		merged, err := NewEngine(g, st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkJoinMatchesSettleLoop(t, merged, int64(seed))
	}
}

// TestJoinOnlyRunSkipsItemIndex: a run that serves only β = 1 exact
// joins answers as the pooled path does and never sizes the candidate
// table's item index (stamp and slot, 8 B an item); the first merge
// that looks candidates up by item, the settle loop, sizes it.
func TestJoinOnlyRunSkipsItemIndex(t *testing.T) {
	e, _ := randomCorpusEngine(t, 3, Config{
		Proximity: proximity.Params{Alpha: 0.7, SelfWeight: 1, MinSigma: 0.05},
		Beta:      1,
	})
	// The table's index is unexported; its length is all this reads.
	index := func(r *mergeRun) (stamp, slot int) {
		tb := reflect.ValueOf(&r.table).Elem()
		return tb.FieldByName("stamp").Len(), tb.FieldByName("slot").Len()
	}
	var r mergeRun
	var got Answer
	for s := 0; s < e.Graph().NumUsers(); s++ {
		q := Query{Seeker: graph.UserID(s), Tags: []tagstore.TagID{tagstore.TagID(s % 20), 3}, K: 1 + s%12}
		h, err := e.MaterializeHorizon(q.Seeker, 0)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{RefineScores: true}
		if err := r.merge(e, q, nil, h, opts, &got); err != nil {
			t.Fatal(err)
		}
		want, err := e.SocialMergeWithHorizon(q, h, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v:\nrun    %+v\npooled %+v", q, got, want)
		}
		if stamp, slot := index(&r); stamp != 0 || slot != 0 {
			t.Fatalf("after the join for seeker %d the run's item index holds %d stamps and %d slots, want none", s, stamp, slot)
		}
	}
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 5}
	h, err := e.MaterializeHorizon(q.Seeker, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.merge(e, q, nil, h, Options{RefineScores: true, MaxUsers: h.Size() + 1}, &got); err != nil {
		t.Fatal(err)
	}
	if stamp, slot := index(&r); stamp != e.Store().NumItems() || slot != stamp {
		t.Fatalf("after the settle loop the run's item index holds %d stamps and %d slots, want %d", stamp, slot, e.Store().NumItems())
	}
}

// mergedCorpus folds three batches into ds, one merge each: a new user
// who befriends two old ones and tags under an old tag; a new tag used
// by the new user and two old ones; and a (user, tag) pair that did not
// exist together with a frequency bump that reorders an existing list.
func mergedCorpus(t *testing.T, ds *gen.Dataset) (*graph.Graph, *tagstore.Store) {
	t.Helper()
	g, st := ds.Graph, ds.Store
	nu, ni, nt := st.NumUsers(), st.NumItems(), st.NumTags()
	newUser, newTag := int32(nu), tagstore.TagID(nt)
	g, err := g.Merge([]graph.Edge{{U: graph.UserID(newUser), V: 0, Weight: 0.9}, {U: graph.UserID(newUser), V: 7, Weight: 0.5}}, nu+1)
	if err != nil {
		t.Fatal(err)
	}
	var pair tagstore.Triple // the first (user, tag) the corpus lacks
	for u := int32(0); pair.Count == 0; u++ {
		for tag := tagstore.TagID(0); int(tag) < nt && pair.Count == 0; tag++ {
			if st.UserList(u, tag) == nil {
				pair = tagstore.Triple{User: u, Item: 3, Tag: tag, Count: 2}
			}
		}
	}
	bump := st.Triples()[len(st.Triples())/2]
	bump.Count = 4
	for _, step := range []struct {
		delta  []tagstore.Triple
		nu, nt int
	}{
		{[]tagstore.Triple{{User: newUser, Item: 1, Tag: 0, Count: 1}, {User: newUser, Item: 2, Tag: 0, Count: 3}}, nu + 1, nt},
		{[]tagstore.Triple{{User: newUser, Item: 1, Tag: newTag, Count: 2}, {User: 0, Item: 5, Tag: newTag, Count: 1}, {User: 9, Item: 1, Tag: newTag, Count: 1}}, nu + 1, nt + 1},
		{[]tagstore.Triple{pair, bump}, nu + 1, nt + 1},
	} {
		if st, err = st.Merge(step.delta, step.nu, ni, step.nt); err != nil {
			t.Fatal(err)
		}
	}
	return g, st
}

func checkJoinMatchesSettleLoop(t *testing.T, e *Engine, seed int64) {
	t.Helper()
	beta := e.beta
	rng := rand.New(rand.NewSource(seed))
	tag := func() tagstore.TagID { return tagstore.TagID(rng.Intn(e.Store().NumTags())) }
	type checked struct {
		q    Query
		h    *SeekerHorizon
		want Answer
	}
	var runs []checked
	for s := 0; s < e.Graph().NumUsers(); s++ {
		first := tag()
		q := Query{Seeker: graph.UserID(s), Tags: []tagstore.TagID{first, tag(), first}, K: 1 + rng.Intn(8)}
		all := q
		all.K = e.Store().NumItems()
		h, err := e.MaterializeHorizon(q.Seeker, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range [...]Query{q, all} {
			join, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true})
			if err != nil {
				t.Fatal(err)
			}
			loop, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true, MaxUsers: h.Size() + 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(join, loop) {
				t.Fatalf("β=%g %+v over its horizon of %d:\njoin %+v\nloop %+v", beta, q, h.Size(), join, loop)
			}
			runs = append(runs, checked{q, h, loop})
			lazy, err := e.SocialMerge(q, Options{RefineScores: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(join, lazy) {
				t.Fatalf("β=%g %+v over its horizon of %d:\njoin %+v\nlazy %+v", beta, q, h.Size(), join, lazy)
			}
		}
	}
	// The same joins back to back on one goroutine, so they share one
	// pooled run: largest horizon first, then smallest first. A slot row
	// one query leaves behind — the sink's or a real rank's — would be
	// read by a smaller horizon after a larger one.
	slices.SortStableFunc(runs, func(a, b checked) int { return b.h.Size() - a.h.Size() })
	for range 2 {
		prev := 0
		for _, c := range runs {
			join, err := e.SocialMergeWithHorizon(c.q, c.h, Options{RefineScores: true})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(join, c.want) {
				t.Fatalf("β=%g %+v over %d of its horizon, after one over %d:\njoin %+v\nloop %+v", beta, c.q, c.h.Size(), prev, join, c.want)
			}
			prev = c.h.Size()
		}
		slices.Reverse(runs)
	}
}

// TestJoinMatchesSettleLoopAcrossBlocks: the join reads each query tag's
// lists block by block, so a list's record names its block and its
// offset there. Over tags whose lists span several blocks and horizons
// that skip users inside every one of them, the join answers what the
// settle loop over the same horizon does — results, Exact, accesses and
// users settled — for β = 1, a blend and pure-global scoring, and for
// every k from 1 to NumItems().
func TestJoinMatchesSettleLoopAcrossBlocks(t *testing.T) {
	const users, items, tags = 300, 90, 3
	rng := rand.New(rand.NewSource(7))
	// Two components: the users u with u%3 == 0 form one, the rest the
	// other, so a horizon from either skips users of the other in
	// every block.
	gb := graph.NewBuilder(users)
	for u := 0; u < users; u++ {
		for range 2 {
			v := rng.Intn(users)
			if (v%3 == 0) == (u%3 == 0) && v != u {
				gb.AddEdge(graph.UserID(u), graph.UserID(v), 0.3+0.7*rng.Float64())
			}
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := tagstore.NewBuilder(users, items, tags)
	for u := 0; u < users; u++ {
		for range 8 {
			tb.AddCount(int32(u), tagstore.ItemID(rng.Intn(items)), tagstore.TagID(rng.Intn(2)), 1+int32(rng.Intn(3)))
		}
		tb.Add(int32(u), tagstore.ItemID(u%items), 2)
		tb.Add(int32(u), tagstore.ItemID(u*7%items), 2)
	}
	st, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	for tag := range tagstore.TagID(tags) {
		if n := len(st.TagBlocks(tag)); n < 2 {
			t.Fatalf("tag %d's lists lie in %d block, want several", tag, n)
		}
	}
	for _, beta := range []float64{1, 0.6, 0} {
		e, err := NewEngine(g, st, Config{
			Proximity: proximity.Params{Alpha: 0.9, SelfWeight: 1, MinSigma: 0.001},
			Beta:      beta,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, seeker := range []graph.UserID{0, 1, 150, 299} {
			h, err := e.MaterializeHorizon(seeker, 0)
			if err != nil {
				t.Fatal(err)
			}
			in := make(map[int32]bool, h.Size())
			for _, entry := range h.list {
				in[entry.User] = true
			}
			for tag := range tagstore.TagID(tags) {
				for k, b := range st.TagBlocks(tag) {
					us, _, _ := b.Lists()
					if !slices.ContainsFunc(us, func(u int32) bool { return in[u] }) || !slices.ContainsFunc(us, func(u int32) bool { return !in[u] }) {
						t.Fatalf("seeker %d's horizon holds none or all of the users of tag %d's block %d", seeker, tag, k)
					}
				}
			}
			for _, qt := range [][]tagstore.TagID{{0, 1, 0}, {1, 2}} {
				for k := 1; k <= items; k++ {
					q := Query{Seeker: seeker, Tags: qt, K: k}
					join, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true})
					if err != nil {
						t.Fatal(err)
					}
					loop, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true, MaxUsers: h.Size() + 1})
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(join, loop) {
						t.Fatalf("β=%g %+v over its horizon of %d:\njoin %+v\nloop %+v", beta, q, h.Size(), join, loop)
					}
				}
			}
		}
	}
}

// TestJoinScratchIsBoundedByTagUsers: the join's scratch is sized by
// the lists a query can find in its horizon, not by |horizon| × |tags|.
// On a run outside the pool, a query naming search.MaxTags tags over a
// horizon of every user leaves room for at most Σ_t min(|users(t)|,
// |horizon|) + 1 finds of the list pass, as many sorted lists as it
// found, and |horizon| + 1 counters.
func TestJoinScratchIsBoundedByTagUsers(t *testing.T) {
	ds, err := gen.Generate(gen.CorpusParams{
		Name:           "bound",
		Graph:          gen.GraphParams{Kind: gen.BarabasiAlbert, NumUsers: 400, M: 2, MinWeight: 0.2, MaxWeight: 1},
		NumItems:       300,
		NumTags:        3 * search.MaxTags,
		TriplesPerUser: 40,
		TagZipfS:       1.1,
		ItemZipfS:      1.2,
		Homophily:      0.4,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Store, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h, err := e.MaterializeHorizon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != ds.Store.NumUsers() {
		t.Fatalf("horizon of %d users, want all %d", h.Size(), ds.Store.NumUsers())
	}
	users := func(tag tagstore.TagID) (n int) {
		for _, b := range ds.Store.TagBlocks(tag) {
			us, _, _ := b.Lists()
			n += len(us)
		}
		return n
	}
	tags := make([]tagstore.TagID, ds.Store.NumTags())
	for i := range tags {
		tags[i] = tagstore.TagID(i)
	}
	slices.SortStableFunc(tags, func(a, b tagstore.TagID) int { return users(b) - users(a) })
	q := Query{Seeker: 0, Tags: tags[:search.MaxTags], K: 10}
	var r mergeRun
	var ans Answer
	if err := r.merge(e, q, nil, h, Options{RefineScores: true}, &ans); err != nil {
		t.Fatal(err)
	}
	var c joinCounts
	c.add(e, q, h)
	t.Logf("room for %d finds and %d lists for %d lists (Σ min %d) and %d counters; a rank × tag array would hold %d slots",
		len(r.found), len(r.list), c.lists, c.most, len(r.count), (h.Size()+1)*len(q.Tags))
	if len(r.found) > c.most+1 || len(r.list) > c.lists {
		t.Errorf("the join holds %d finds and %d lists, want at most %d + 1 and %d", len(r.found), len(r.list), c.most, c.lists)
	}
	if len(r.count) > h.Size()+1 {
		t.Errorf("the join holds %d counters, want at most %d", len(r.count), h.Size()+1)
	}
}

package core

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/tagstore"
	"repro/internal/topk"
)

// tinyEngine builds a hand-checkable world:
//
//	users: 0-1 (w=0.5), 1-2 (w=0.5), 3 isolated
//	tags:  t0, t1
//	items: i0..i3
//	u0: (i0,t0)
//	u1: (i1,t0)x2
//	u2: (i2,t0), (i2,t1)
//	u3: (i3,t0)x5          ← globally hot but socially unreachable from 0
func tinyEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	gb := graph.NewBuilder(4)
	gb.AddEdge(0, 1, 0.5)
	gb.AddEdge(1, 2, 0.5)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := tagstore.NewBuilder(4, 4, 2)
	tb.Add(0, 0, 0)
	tb.AddCount(1, 1, 0, 2)
	tb.Add(2, 2, 0)
	tb.Add(2, 2, 1)
	tb.AddCount(3, 3, 0, 5)
	store, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	g, _ := graph.NewBuilder(2).Build()
	s, _ := tagstore.NewBuilder(2, 1, 1).Build()
	if _, err := NewEngine(nil, s, DefaultConfig()); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := NewEngine(g, nil, DefaultConfig()); err == nil {
		t.Fatal("nil store accepted")
	}
	s3, _ := tagstore.NewBuilder(3, 1, 1).Build()
	if _, err := NewEngine(g, s3, DefaultConfig()); err == nil {
		t.Fatal("mismatched universes accepted")
	}
	cfg := DefaultConfig()
	cfg.Beta = 1.5
	if _, err := NewEngine(g, s, cfg); err == nil {
		t.Fatal("beta 1.5 accepted")
	}
	cfg = DefaultConfig()
	cfg.Proximity = proximity.Params{Alpha: 2, SelfWeight: 1}
	if _, err := NewEngine(g, s, cfg); err == nil {
		t.Fatal("alpha 2 accepted")
	}
	// zero-value proximity params default rather than fail
	e, err := NewEngine(g, s, Config{Beta: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.ProximityParams() != proximity.DefaultParams() {
		t.Fatal("zero proximity params not defaulted")
	}
}

func TestQueryValidation(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	cases := []Query{
		{Seeker: 0, Tags: []tagstore.TagID{0}, K: 0},
		{Seeker: -1, Tags: []tagstore.TagID{0}, K: 1},
		{Seeker: 9, Tags: []tagstore.TagID{0}, K: 1},
		{Seeker: 0, Tags: nil, K: 1},
		{Seeker: 0, Tags: []tagstore.TagID{7}, K: 1},
	}
	for i, q := range cases {
		if _, err := e.ExactSocial(q); err == nil {
			t.Errorf("case %d: ExactSocial accepted %+v", i, q)
		}
		if _, err := e.GlobalTopK(q); err == nil {
			t.Errorf("case %d: GlobalTopK accepted %+v", i, q)
		}
		if _, err := e.SocialMerge(q, Options{}); err == nil {
			t.Errorf("case %d: SocialMerge accepted %+v", i, q)
		}
	}
}

func TestExactSocialHandExample(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	// seeker 0, tag t0, pure social, no damping:
	//   σ(0,0)=1, σ(0,1)=0.5, σ(0,2)=0.25, σ(0,3)=0
	//   i0: 1·1 = 1;  i1: 0.5·2 = 1;  i2: 0.25·1 = 0.25;  i3: 0
	ans, err := e.ExactSocial(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact {
		t.Fatal("ExactSocial not exact")
	}
	want := []topk.Result{{Item: 0, Score: 1}, {Item: 1, Score: 1}, {Item: 2, Score: 0.25}}
	if len(ans.Results) != len(want) {
		t.Fatalf("results = %v, want %v", ans.Results, want)
	}
	for i := range want {
		if ans.Results[i].Item != want[i].Item || math.Abs(ans.Results[i].Score-want[i].Score) > 1e-12 {
			t.Fatalf("results = %v, want %v", ans.Results, want)
		}
	}
}

func TestExactSocialBetaBlend(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Beta = 0.5
	e := tinyEngine(t, cfg)
	// seeker 0, tag t0: social part as above ×0.5; global part ×0.5:
	//   gtf: i0=1, i1=2, i2=1, i3=5
	//   i0: .5·1 + .5·1 = 1;  i1: .5·1 + .5·2 = 1.5
	//   i2: .5·.25 + .5·1 = .625;  i3: 0 + .5·5 = 2.5  ← hot item wins
	ans, err := e.ExactSocial(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 1 || ans.Results[0].Item != 3 || math.Abs(ans.Results[0].Score-2.5) > 1e-12 {
		t.Fatalf("beta blend top-1 = %v, want item 3 score 2.5", ans.Results)
	}
}

func TestExactSocialMultiTag(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	// seeker 2, tags {t0, t1}: σ(2,2)=1, σ(2,1)=0.5, σ(2,0)=0.25
	//   i2: 1·(1+1) = 2;  i1: .5·2 = 1;  i0: .25·1 = .25
	ans, err := e.ExactSocial(Query{Seeker: 2, Tags: []tagstore.TagID{0, 1}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Results[0].Item != 2 || math.Abs(ans.Results[0].Score-2) > 1e-12 {
		t.Fatalf("multi-tag top = %v", ans.Results)
	}
	// duplicate tags are ignored
	ans2, err := e.ExactSocial(Query{Seeker: 2, Tags: []tagstore.TagID{0, 0, 1, 1}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ans2.Results[0].Score != ans.Results[0].Score {
		t.Fatal("duplicate tags changed the score")
	}
}

func TestScoreSpotCheck(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	s, err := e.Score(0, []tagstore.TagID{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-1.0) > 1e-12 {
		t.Fatalf("Score = %g, want 1", s)
	}
	if _, err := e.Score(0, []tagstore.TagID{9}, 1); err == nil {
		t.Fatal("bad tag accepted")
	}
}

func TestGlobalTopKMatchesOracle(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 2}
	ans, err := e.GlobalTopK(q)
	if err != nil {
		t.Fatal(err)
	}
	// global tf under t0: i3=5, i1=2, i0=1, i2=1
	want := []topk.Result{{Item: 3, Score: 5}, {Item: 1, Score: 2}}
	if len(ans.Results) != 2 || ans.Results[0] != want[0] || ans.Results[1] != want[1] {
		t.Fatalf("GlobalTopK = %v, want %v", ans.Results, want)
	}
	if !ans.Exact {
		t.Fatal("GlobalTopK should be exact")
	}
}

func TestGlobalTopKEarlyTermination(t *testing.T) {
	// With k=1 on a long list, TA must not read the whole list.
	nItems := 500
	tb := tagstore.NewBuilder(1, nItems, 1)
	for i := 0; i < nItems; i++ {
		tb.AddCount(0, int32(i), 0, int32(nItems-i))
	}
	store, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, _ := graph.NewBuilder(1).Build()
	e, err := NewEngine(g, store, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ans, err := e.GlobalTopK(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Results[0].Item != 0 {
		t.Fatalf("top item = %d, want 0", ans.Results[0].Item)
	}
	if ans.Access.Sequential > 10 {
		t.Fatalf("TA read %d postings for k=1, expected early stop", ans.Access.Sequential)
	}
}

// assertTopKEquivalent certifies that got is a valid top-k answer for q:
// the multiset of exact scores of the returned items must equal the
// multiset of the exact top-k scores (the correct comparison under
// score ties and lower-bound internal ordering), and every reported
// score must be a lower bound on the item's exact score.
func assertTopKEquivalent(t *testing.T, e *Engine, q Query, got Answer) {
	t.Helper()
	if !topKEquivalent(t, e, q, got) {
		t.Fatalf("answer not equivalent to exact top-%d (seeker %d, tags %v): %v",
			q.K, q.Seeker, q.Tags, got.Results)
	}
}

func TestSocialMergeTinyExact(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	for _, k := range []int{1, 2, 3, 10} {
		q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: k}
		ans, err := e.SocialMerge(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !ans.Exact {
			t.Fatalf("k=%d: not certified exact", k)
		}
		assertTopKEquivalent(t, e, q, ans)
	}
}

func TestSocialMergeEmptyAnswer(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	// seeker 3 is isolated and tagged only item 3 under t0; query t1:
	// σ only reaches u3 itself, who never used t1 → empty answer.
	ans, err := e.SocialMerge(Query{Seeker: 3, Tags: []tagstore.TagID{1}, K: 5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 0 {
		t.Fatalf("results = %v, want empty", ans.Results)
	}
	if !ans.Exact {
		t.Fatal("empty answer should still be certified")
	}
}

func TestSocialMergeIsolatedSeekerOwnTags(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	ans, err := e.SocialMerge(Query{Seeker: 3, Tags: []tagstore.TagID{0}, K: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 1 || ans.Results[0].Item != 3 || math.Abs(ans.Results[0].Score-5) > 1e-12 {
		t.Fatalf("isolated seeker answer = %v, want item 3 score 5", ans.Results)
	}
	assertTopKEquivalent(t, e, Query{Seeker: 3, Tags: []tagstore.TagID{0}, K: 2}, ans)
}

func TestSocialMergeBetaZeroEqualsGlobal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Beta = 0
	e := tinyEngine(t, cfg)
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 2}
	ans, err := e.SocialMerge(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact {
		t.Fatal("beta=0 merge not exact")
	}
	// with β=0 the exact scores are the global tfs
	if ans.Results[0].Item != 3 || math.Abs(ans.Results[0].Score-5) > 1e-12 {
		t.Fatalf("beta=0 top = %v, want item 3 score 5", ans.Results)
	}
	assertTopKEquivalent(t, e, q, ans)
}

func TestSocialMergeEarlyTerminationSavesWork(t *testing.T) {
	// Long path: seeker at one end; friends near the seeker hold the
	// answers. SocialMerge must settle far fewer users than the graph
	// holds.
	n := 400
	gb := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		gb.AddEdge(int32(i), int32(i+1), 0.5)
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := tagstore.NewBuilder(n, n, 1)
	for i := 0; i < n; i++ {
		tb.Add(int32(i), int32(i), 0)
	}
	store, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, store, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3}
	ans, err := e.SocialMerge(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact {
		t.Fatal("not exact")
	}
	assertTopKEquivalent(t, e, q, ans)
	if ans.UsersSettled > n/4 {
		t.Fatalf("settled %d of %d users; early termination failed", ans.UsersSettled, n)
	}
}

func TestSocialMergeThetaCutoff(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	// θ=0.3 stops before u2 (σ=0.25) is consumed.
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3}
	ans, err := e.SocialMerge(q, Options{Theta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exact {
		t.Fatal("theta cutoff should clear Exact")
	}
	for _, r := range ans.Results {
		if r.Item == 2 {
			t.Fatalf("item 2 visible despite horizon: %v", ans.Results)
		}
	}
}

func TestSocialMergeMaxUsersCutoff(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	ans, err := e.SocialMerge(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3}, Options{MaxUsers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exact {
		t.Fatal("MaxUsers cutoff should clear Exact")
	}
	if ans.UsersSettled != 1 {
		t.Fatalf("settled %d users, want 1", ans.UsersSettled)
	}
}

func TestSocialMergeMaxHopsCutoff(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	ans, err := e.SocialMerge(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3}, Options{MaxHops: 1})
	if err != nil {
		t.Fatal(err)
	}
	// u2 is 2 hops away; its item must be absent.
	for _, r := range ans.Results {
		if r.Item == 2 {
			t.Fatalf("hop-bounded answer contains 2-hop item: %v", ans.Results)
		}
	}
}

func TestSocialMergeOptionsRequireIndexes(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 1}
	if _, err := e.SocialMerge(q, Options{LandmarkPrune: true}); err == nil {
		t.Fatal("LandmarkPrune without index accepted")
	}
	if _, err := e.SocialMerge(q, Options{UseNeighborhoods: true}); err == nil {
		t.Fatal("UseNeighborhoods without index accepted")
	}
	// A refine run drains its source and cannot certify against the
	// residual a neighbourhood list leaves, so the pair is refused even
	// with the index attached.
	idx, err := BuildNeighborhoods(e.Graph(), 1, e.ProximityParams())
	if err != nil {
		t.Fatal(err)
	}
	e.AttachNeighborhoods(idx)
	if _, err := e.SocialMerge(q, Options{UseNeighborhoods: true, RefineScores: true}); err != errUnsupportedOption {
		t.Fatalf("RefineScores with UseNeighborhoods: err = %v, want %v", err, errUnsupportedOption)
	}
}

func TestSocialMergeNeighborhoodFullHorizonExact(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	idx, err := BuildNeighborhoods(e.Graph(), 4, e.ProximityParams())
	if err != nil {
		t.Fatal(err)
	}
	e.AttachNeighborhoods(idx)
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3}
	ans, err := e.SocialMerge(q, Options{UseNeighborhoods: true})
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact {
		t.Fatal("full-horizon materialized run should be certified exact")
	}
	assertTopKEquivalent(t, e, q, ans)
}

func TestSocialMergeNeighborhoodTruncated(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	idx, err := BuildNeighborhoods(e.Graph(), 1, e.ProximityParams())
	if err != nil {
		t.Fatal(err)
	}
	e.AttachNeighborhoods(idx)
	// Horizon of 1 covers only the seeker; residual bound 0.5 remains,
	// so with k=3 the answer cannot be certified.
	ans, err := e.SocialMerge(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3}, Options{UseNeighborhoods: true})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exact {
		t.Fatal("truncated horizon should not certify a k=3 answer here")
	}
}

func TestBuildNeighborhoodsValidation(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	if _, err := BuildNeighborhoods(e.Graph(), 0, e.ProximityParams()); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := BuildNeighborhoods(e.Graph(), 2, proximity.Params{Alpha: 5, SelfWeight: 1}); err == nil {
		t.Fatal("bad params accepted")
	}
	idx, err := BuildNeighborhoods(e.Graph(), 2, e.ProximityParams())
	if err != nil {
		t.Fatal(err)
	}
	list, residual := idx.Horizon(0)
	if len(list) != 2 || list[0].User != 0 {
		t.Fatalf("Horizon(0) list = %v", list)
	}
	if residual <= 0 {
		t.Fatalf("residual = %g, want positive (graph extends beyond L=2)", residual)
	}
	if idx.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
}

func TestSocialMergeLandmarkPruneRuns(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	lm, err := proximity.BuildLandmarks(e.Graph(), 2, e.ProximityParams())
	if err != nil {
		t.Fatal(err)
	}
	e.AttachLandmarks(lm)
	ans, err := e.SocialMerge(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 2}, Options{LandmarkPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) == 0 {
		t.Fatal("landmark-pruned run returned nothing")
	}
}

func TestAnswerAccessCountsPopulated(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	ans, err := e.SocialMerge(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Access.Sequential == 0 || ans.Access.UsersExpanded == 0 {
		t.Fatalf("access counters empty: %+v", ans.Access)
	}
}

package overlay

import (
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tagstore"
)

func base(t testing.TB) (*graph.Graph, *tagstore.Store) {
	t.Helper()
	gb := graph.NewBuilder(3)
	gb.AddEdge(0, 1, 0.5)
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := tagstore.NewBuilder(3, 2, 1)
	tb.Add(1, 0, 0)
	s, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g, s
}

func TestNewValidation(t *testing.T) {
	g, s := base(t)
	if _, err := New(nil, s); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(g, nil); err == nil {
		t.Fatal("nil store accepted")
	}
	s4, _ := tagstore.NewBuilder(4, 1, 1).Build()
	if _, err := New(g, s4); err == nil {
		t.Fatal("mismatched universes accepted")
	}
}

func TestMutationsInvisibleUntilCompact(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Tag(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := o.Befriend(1, 2, 0.9); err != nil {
		t.Fatal(err)
	}
	sg, ss := o.Snapshot()
	if sg.HasEdge(1, 2) || ss.TF(0, 1, 0) != 0 {
		t.Fatal("pending mutations visible before compaction")
	}
	pe, pt := o.Pending()
	if pe != 1 || pt != 1 {
		t.Fatalf("Pending = %d,%d want 1,1", pe, pt)
	}
	if err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	sg, ss = o.Snapshot()
	if !sg.HasEdge(1, 2) {
		t.Fatal("edge missing after compaction")
	}
	if ss.TF(0, 1, 0) != 1 {
		t.Fatal("triple missing after compaction")
	}
	pe, pt = o.Pending()
	if pe != 0 || pt != 0 {
		t.Fatal("pending not cleared after compaction")
	}
	if o.Compactions() != 1 {
		t.Fatalf("Compactions = %d", o.Compactions())
	}
}

func TestCompactIdempotentWhenClean(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	g1, s1 := o.Snapshot()
	if err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	g2, s2 := o.Snapshot()
	if g1 != g2 || s1 != s2 {
		t.Fatal("no-op compaction replaced snapshot")
	}
	if o.Compactions() != 0 {
		t.Fatal("no-op compaction counted")
	}
}

func TestUniverseGrowth(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	u := o.AddUser()
	i := o.AddItem()
	tg := o.AddTag()
	if u != 3 || i != 2 || tg != 1 {
		t.Fatalf("new ids = %d,%d,%d", u, i, tg)
	}
	if err := o.Befriend(0, u, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := o.Tag(u, i, tg); err != nil {
		t.Fatal(err)
	}
	if err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	sg, ss := o.Snapshot()
	if sg.NumUsers() != 4 || ss.NumItems() != 3 || ss.NumTags() != 2 {
		t.Fatalf("universe after growth: %d users, %d items, %d tags",
			sg.NumUsers(), ss.NumItems(), ss.NumTags())
	}
	if w, ok := sg.EdgeWeight(0, 3); !ok || w != 0.7 {
		t.Fatal("new user's edge missing")
	}
	if ss.TF(3, 2, 1) != 1 {
		t.Fatal("new user's triple missing")
	}
}

func TestMutationValidation(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Befriend(0, 0, 0.5); err == nil {
		t.Fatal("self-friendship accepted")
	}
	if err := o.Befriend(0, 9, 0.5); err == nil {
		t.Fatal("out-of-range friend accepted")
	}
	if err := o.Befriend(0, 1, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := o.Befriend(0, 1, 1.5); err == nil {
		t.Fatal("weight > 1 accepted")
	}
	if err := o.Tag(9, 0, 0); err == nil {
		t.Fatal("out-of-range user accepted")
	}
	if err := o.Tag(0, 9, 0); err == nil {
		t.Fatal("out-of-range item accepted")
	}
	if err := o.Tag(0, 0, 9); err == nil {
		t.Fatal("out-of-range tag accepted")
	}
}

func TestDuplicateEdgeMaxWins(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	// base edge (0,1) has weight 0.5; strengthen it
	if err := o.Befriend(0, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	sg, _ := o.Snapshot()
	if w, _ := sg.EdgeWeight(0, 1); w != 0.9 {
		t.Fatalf("strengthened weight = %g, want 0.9", w)
	}
	// weakening is ignored (max wins)
	if err := o.Befriend(0, 1, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	sg, _ = o.Snapshot()
	if w, _ := sg.EdgeWeight(0, 1); w != 0.9 {
		t.Fatalf("weakened weight = %g, want 0.9 preserved", w)
	}
}

func TestEngineQueriesSeeUpdatesAfterCompact(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(o, core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 5}
	ans, err := e.SocialMerge(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// base: friend u1 tagged item 0 → one result, score 0.5
	if len(ans.Results) != 1 || math.Abs(ans.Results[0].Score-0.5) > 1e-12 {
		t.Fatalf("base answer = %v", ans.Results)
	}
	// user 2 tags item 1, then befriends user 0 directly
	if err := e.Tag(2, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Befriend(0, 2, 0.8); err != nil {
		t.Fatal(err)
	}
	// not compacted yet: same answer
	ans, err = e.SocialMerge(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 1 {
		t.Fatalf("uncompacted answer changed: %v", ans.Results)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	ans, err = e.SocialMerge(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 2 {
		t.Fatalf("post-compaction answer = %v, want 2 results", ans.Results)
	}
	// new result: item 1 with score 0.8
	found := false
	for _, r := range ans.Results {
		if r.Item == 1 && math.Abs(r.Score-0.8) < 1e-12 {
			found = true
		}
	}
	if !found {
		t.Fatalf("new tagging not reflected: %v", ans.Results)
	}
	// all three algorithms agree on the snapshot
	if _, err := e.ExactSocial(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.GlobalTopK(q); err != nil {
		t.Fatal(err)
	}
}

func TestEngineAutoCompaction(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(o, core.DefaultConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := e.Tag(0, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if o.Compactions() != 1 {
		t.Fatalf("Compactions = %d, want 1 after 3 mutations with threshold 3", o.Compactions())
	}
	_, ss := o.Snapshot()
	if ss.TF(0, 1, 0) != 3 {
		t.Fatalf("TF = %d, want 3", ss.TF(0, 1, 0))
	}
}

func TestConcurrentMutateAndQuery(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(o, core.DefaultConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					if err := e.Tag(graph.UserID(w%3), tagstore.ItemID(i%2), 0); err != nil {
						errs <- err
						return
					}
				} else {
					q := core.Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3}
					if _, err := e.SocialMerge(q, core.Options{}); err != nil {
						errs <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestTagOnlyCompactReachesEngine: a compaction without friendships
// keeps the graph it had, so the engine must notice the new store on
// its own; and one without tags keeps the store.
func TestTagOnlyCompactReachesEngine(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(o, core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	q := core.Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 5}
	if ans, err := e.SocialMerge(q, core.Options{}); err != nil || len(ans.Results) != 1 {
		t.Fatalf("base answer = %v, %v", ans.Results, err)
	}
	if err := e.Tag(1, 1, 0); err != nil { // friend u1 tags a second item
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if sg, ss := o.Snapshot(); sg != g || ss == s {
		t.Fatalf("tag-only compaction: graph reused %v, store replaced %v; want both", sg == g, ss != s)
	}
	ans, err := e.SocialMerge(q, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 2 {
		t.Fatalf("answer after a tag-only compaction = %v, want 2 results", ans.Results)
	}
	_, tagged := o.Snapshot()
	if err := e.Befriend(0, 2, 0.8); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if sg, ss := o.Snapshot(); sg == g || ss != tagged {
		t.Fatalf("friend-only compaction: graph replaced %v, store reused %v; want both", sg != g, ss == tagged)
	}
	if o.Compactions() != 2 {
		t.Fatalf("Compactions() = %d, want 2", o.Compactions())
	}
}

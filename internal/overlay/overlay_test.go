package overlay

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

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
	if err := o.Befriend(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN weight accepted")
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

// TestPendingFriendships: an edge declared in both orders and more than
// once is reported once, as U < V and without a weight; a tag is not a
// friendship; a compaction leaves nothing pending.
func TestPendingFriendships(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := o.PendingFriendships(); len(got) != 0 {
		t.Fatalf("fresh overlay: %v pending", got)
	}
	for _, e := range []graph.Edge{{U: 2, V: 1, Weight: 0.3}, {U: 1, V: 2, Weight: 0.8}, {U: 2, V: 1, Weight: 0.5}, {U: 0, V: 2, Weight: 1}} {
		if err := o.Befriend(e.U, e.V, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Tag(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	want := []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}}
	if got := o.PendingFriendships(); !slices.Equal(got, want) {
		t.Fatalf("PendingFriendships = %v, want %v", got, want)
	}
	if err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := o.PendingFriendships(); len(got) != 0 {
		t.Fatalf("after Compact: %v pending", got)
	}
	if sg, _ := o.Snapshot(); !sg.HasEdge(1, 2) || !sg.HasEdge(0, 2) {
		t.Fatal("compaction lost a pending friendship")
	}
}

// TestConcurrentMutateAndQuery: writers, compactions and snapshot
// readers interleave (under -race); every snapshot a reader sees is a
// consistent pair, and the final compaction holds every write.
func TestConcurrentMutateAndQuery(t *testing.T) {
	g, s := base(t)
	o, err := New(g, s)
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 4, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if w%2 == 0 {
					if err := o.Tag(graph.UserID(w%3), tagstore.ItemID(i%2), 0); err != nil {
						errs <- err
						return
					}
					if i%5 == 4 {
						if err := o.Compact(); err != nil {
							errs <- err
							return
						}
					}
				} else {
					sg, ss := o.Snapshot()
					if sg.NumUsers() != ss.NumUsers() {
						errs <- fmt.Errorf("torn snapshot: %d graph users, %d store users", sg.NumUsers(), ss.NumUsers())
						return
					}
					o.Pending()
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := o.Compact(); err != nil {
		t.Fatal(err)
	}
	// Writers 0 and 2 tag items 0 and 1 ten times each, as users 0 and 2.
	_, ss := o.Snapshot()
	for _, u := range []graph.UserID{0, 2} {
		for item := tagstore.ItemID(0); item < 2; item++ {
			if tf := ss.TF(u, item, 0); tf != iters/2 {
				t.Fatalf("TF(%d, %d, 0) = %d, want %d", u, item, tf, iters/2)
			}
		}
	}
}

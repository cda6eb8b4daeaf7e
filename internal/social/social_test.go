package social

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/proximity"
	"repro/internal/search"
)

// searchExact runs a ModeExact query.
func searchExact(svc *Service, seeker string, tags []string, k int) ([]search.Result, error) {
	resp, err := svc.Do(context.Background(), search.Request{Seeker: seeker, Tags: tags, K: k, Mode: search.ModeExact})
	return resp.Results, err
}

// pizzaWorld builds the README scenario through the public API.
func pizzaWorld(t testing.TB, autoCompact int) *Service {
	t.Helper()
	cfg := DefaultServiceConfig()
	cfg.Proximity = proximity.Params{Alpha: 1, SelfWeight: 1} // undamped: hand-checkable
	cfg.AutoCompactEvery = autoCompact
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := []error{
		svc.Befriend("alice", "bob", 0.9),
		svc.Befriend("alice", "carol", 0.7),
		svc.Befriend("bob", "dave", 0.8),
		svc.Tag("bob", "luigis", "pizza"),
		svc.Tag("carol", "luigis", "pizza"),
		svc.Tag("carol", "luigis", "pizza"),
		svc.Tag("dave", "marios", "pizza"),
		svc.Tag("frank", "chain", "pizza"),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestSearchPersonalized(t *testing.T) {
	svc := pizzaWorld(t, 0)
	res, err := searchExact(svc, "alice", []string{"pizza"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// luigis: 0.9·1 (bob) + 0.7·2 (carol) = 2.3; marios: 0.72·1;
	// chain: unreachable → absent.
	if len(res) != 2 {
		t.Fatalf("results = %v, want 2", res)
	}
	if res[0].Item != "luigis" || math.Abs(res[0].Score-2.3) > 1e-12 {
		t.Fatalf("top = %+v, want luigis 2.3", res[0])
	}
	if res[1].Item != "marios" || math.Abs(res[1].Score-0.72) > 1e-12 {
		t.Fatalf("second = %+v, want marios 0.72", res[1])
	}
	// frank's own view: only his item
	res, err = searchExact(svc, "frank", []string{"pizza"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Item != "chain" {
		t.Fatalf("frank's results = %v", res)
	}
}

func TestSearchValidation(t *testing.T) {
	svc := pizzaWorld(t, 0)
	if _, err := searchExact(svc, "nobody", []string{"pizza"}, 3); err == nil {
		t.Fatal("unknown seeker accepted")
	}
	if _, err := searchExact(svc, "alice", []string{"sushi"}, 3); err == nil {
		t.Fatal("unknown tag accepted")
	}
}

// TestWritesVisibleAfterAutoCompaction: pending writes stay invisible
// until the compaction policy folds them in, and then every kind of
// batch reaches Do — one with only tags keeps the engine's graph and
// replaces its store, one with only friendships (between known users)
// does the reverse, and the service must notice either change.
func TestWritesVisibleAfterAutoCompaction(t *testing.T) {
	type write struct {
		befriend bool
		a, b     string // users, or user and item
		weight   float64
	}
	cases := []struct {
		name               string
		writes             []write // the last one triggers the compaction
		item               string
		score              float64
		newGraph, newStore bool
	}{
		// erin at weight 0.9, two taggings → 1.8
		{"mixed", []write{{true, "alice", "erin", 0.9}, {false, "erin", "sliceplace", 0}, {false, "erin", "sliceplace", 0}},
			"sliceplace", 1.8, true, true},
		// bob at weight 0.9, two taggings → 1.8
		{"tags only", []write{{false, "bob", "dominos", 0}, {false, "bob", "dominos", 0}},
			"dominos", 1.8, false, true},
		// frank becomes alice's friend at 0.5 (carol's 0.7·0.2 is lower)
		{"friendships only", []write{{true, "alice", "frank", 0.5}, {true, "carol", "frank", 0.2}},
			"chain", 0.5, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc := pizzaWorld(t, len(tc.writes))
			before := svc.view.Load().eng
			for i, w := range tc.writes {
				var err error
				if w.befriend {
					err = svc.Befriend(w.a, w.b, w.weight)
				} else {
					err = svc.Tag(w.a, w.b, "pizza")
				}
				if err != nil {
					t.Fatal(err)
				}
				res, err := searchExact(svc, "alice", []string{"pizza"}, 5)
				if err != nil {
					t.Fatal(err)
				}
				var got *search.Result
				for j := range res {
					if res[j].Item == tc.item {
						got = &res[j]
					}
				}
				switch {
				case i < len(tc.writes)-1 && got != nil:
					t.Fatalf("pending write %d visible before compaction: %v", i, res)
				case i == len(tc.writes)-1 && got == nil:
					t.Fatalf("compacted writes invisible: %v", res)
				case got != nil && math.Abs(got.Score-tc.score) > 1e-12:
					t.Fatalf("%s score = %g, want %g", tc.item, got.Score, tc.score)
				}
			}
			after := svc.view.Load().eng
			if (after.Graph() != before.Graph()) != tc.newGraph || (after.Store() != before.Store()) != tc.newStore {
				t.Fatalf("graph replaced %v, store replaced %v; want %v, %v",
					after.Graph() != before.Graph(), after.Store() != before.Store(), tc.newGraph, tc.newStore)
			}
		})
	}
}

func TestServiceConfigValidation(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.Beta = 2
	if _, err := NewService(cfg); err == nil {
		t.Fatal("beta 2 accepted")
	}
	cfg = DefaultServiceConfig()
	cfg.AutoCompactEvery = -1
	if _, err := NewService(cfg); err == nil {
		t.Fatal("negative compaction accepted")
	}
	cfg = DefaultServiceConfig()
	cfg.Proximity = proximity.Params{Alpha: 7, SelfWeight: 1}
	if _, err := NewService(cfg); err == nil {
		t.Fatal("bad proximity accepted")
	}
	// zero proximity params default
	cfg = DefaultServiceConfig()
	cfg.Proximity = proximity.Params{}
	if _, err := NewService(cfg); err != nil {
		t.Fatal("zero proximity params rejected")
	}
}

func TestStatsAndUsers(t *testing.T) {
	svc := pizzaWorld(t, 0)
	st := svc.Stats()
	if st.Users != 5 { // alice bob carol dave frank
		t.Fatalf("users = %d, want 5", st.Users)
	}
	if st.Items != 3 || st.Tags != 1 {
		t.Fatalf("items/tags = %d/%d", st.Items, st.Tags)
	}
	if st.PendingWrites != 0 {
		t.Fatalf("pending = %d after flush", st.PendingWrites)
	}
	users := svc.Users()
	if len(users) != 5 || users[0] != "alice" {
		t.Fatalf("Users() = %v", users)
	}
}

func TestConcurrentServiceUse(t *testing.T) {
	svc := pizzaWorld(t, 5)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if w%2 == 0 {
					item := fmt.Sprintf("item-%d-%d", w, i)
					if err := svc.Tag("bob", item, "pizza"); err != nil {
						errs <- err
						return
					}
				} else {
					if _, err := searchExact(svc, "alice", []string{"pizza"}, 3); err != nil {
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
}

package social

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/vocab"
)

// TestViewConcurrentWritersAndReaders hammers the lock-free read path
// while writers keep growing the vocabulary, verifying (under -race)
// that queries never see torn state and that new names become visible
// once flushed.
func TestViewConcurrentWritersAndReaders(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 4 // compact (and republish the view) often
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := svc.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}

	const writers, readers, iters = 2, 4, 300
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				u := fmt.Sprintf("user-%d-%d", w, i)
				if err := svc.Befriend("alice", u, 0.5); err != nil {
					errc <- err
					return
				}
				if err := svc.Tag(u, fmt.Sprintf("item-%d-%d", w, i), "pizza"); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp search.Response
			for i := 0; i < iters; i++ {
				err := svc.DoInto(context.Background(), search.Request{
					Seeker: "alice", Tags: []string{"pizza"}, K: 5,
				}, &resp)
				if err != nil && !errors.Is(err, search.ErrInvalid) {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// After a flush every written name answers through the (refreshed)
	// fast path.
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Do(context.Background(), search.Request{
		Seeker: fmt.Sprintf("user-%d-%d", writers-1, iters-1), Tags: []string{"pizza"}, K: 3,
	})
	if err != nil {
		t.Fatalf("late-added seeker not resolvable: %v", err)
	}
	if len(resp.Results) == 0 {
		t.Fatal("late-added seeker got no results for its own tag")
	}
}

// TestViewFallbackSeesUnflushedNames: a name interned but absent from
// the published view's dictionary clones must still be resolved by
// the locked fallback (it is not "unknown"), while a genuinely unknown
// name keeps erroring with ErrInvalid.
func TestViewFallbackSeesUnflushedNames(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 1 << 30 // no auto-compaction: views refresh only on Flush
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := svc.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}

	// carol is interned after the view was published: the view's
	// clone misses her, the live one resolves her. The engine
	// snapshot predates her, so the query errors — but NOT with the
	// unknown-user ErrInvalid, which is what proves the fallback ran.
	if err := svc.Befriend("alice", "carol", 0.5); err != nil {
		t.Fatal(err)
	}
	_, err = svc.Do(context.Background(), search.Request{Seeker: "carol", Tags: []string{"pizza"}, K: 3})
	if err == nil || errors.Is(err, search.ErrInvalid) {
		t.Fatalf("uncompacted seeker err = %v, want non-ErrInvalid engine error (fallback must resolve the name)", err)
	}

	// A flushed seeker keeps answering, and an unknown one keeps failing.
	if _, err := svc.Do(context.Background(), search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 3}); err != nil {
		t.Fatalf("flushed seeker: %v", err)
	}
	if _, err := svc.Do(context.Background(), search.Request{Seeker: "nobody", K: 3}); !errors.Is(err, search.ErrInvalid) {
		t.Fatalf("unknown seeker err = %v, want ErrInvalid", err)
	}
}

// restoredPizza exports pizzaWorld's state with the users interned in
// the given order and restores a service from it, returning the
// restored service and the dictionaries Restore received.
func restoredPizza(t *testing.T, cfg ServiceConfig, users ...string) (*Service, *vocab.Set) {
	t.Helper()
	src := pizzaWorld(t, 0)
	for _, u := range users {
		if err := src.Tag(u, "own-"+u, "own"); err != nil {
			t.Fatal(err)
		}
	}
	g, st, names, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Restore(cfg, g, st, names)
	if err != nil {
		t.Fatal(err)
	}
	return svc, names
}

// TestImportNeverServesStaleDictionaries: an import replaces the whole
// universe, dictionaries included, so a service whose view held full
// dictionaries of an earlier universe must answer every query exactly
// as the snapshot's source does — even when the source interned the
// same names in a different order.
func TestImportNeverServesStaleDictionaries(t *testing.T) {
	ctx := context.Background()
	// The importer's universe: pizzaWorld's names, restored and flushed.
	dst, _ := restoredPizza(t, DefaultServiceConfig())
	if err := dst.Flush(); err != nil {
		t.Fatal(err)
	}
	// The source's universe: the same names, interned in another order.
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 0
	src, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, err := range []error{
		src.Befriend("frank", "dave", 0.6),
		src.Befriend("bob", "alice", 0.5),
		src.Befriend("carol", "frank", 0.9),
		src.Tag("alice", "chain", "pizza"),
		src.Tag("bob", "marios", "pizza"),
		src.Tag("dave", "luigis", "pizza"),
		src.Tag("frank", "luigis", "pizza"),
		src.Tag("carol", "chain", "pizza"),
	} {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	g, st, names, lsn, err := src.SnapshotWithCursor()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportSnapshot(g, st, names, lsn); err != nil {
		t.Fatal(err)
	}
	for _, seeker := range src.Users() {
		req := search.Request{Seeker: seeker, Tags: []string{"pizza"}, K: 5, Mode: search.ModeExact}
		want, err := src.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dst.Do(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Fatalf("seeker %s: imported %+v, source %+v", seeker, got.Results, want.Results)
		}
	}
}

// TestRestoredViewReadsWithoutLock: Restore publishes a view at once,
// and the view's clones share the storage of the dictionaries Restore
// received, so a restored replica's first query takes no lock and its
// vocabulary has no second copy.
func TestRestoredViewReadsWithoutLock(t *testing.T) {
	svc, names := restoredPizza(t, DefaultServiceConfig())
	v := svc.view.Load()
	if v == nil {
		t.Fatal("no view after Restore")
	}
	for _, p := range [][2]*vocab.Dict{{v.users, names.Users}, {v.items, names.Items}, {v.tags, names.Tags}} {
		if got, want := p[0].Names(), p[1].Names(); len(got) != len(want) || &got[0] != &want[0] {
			t.Fatal("restored view does not share the restored dictionaries' names")
		}
	}
	svc.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Do(context.Background(), search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 3})
		done <- err
	}()
	select {
	case err := <-done:
		svc.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		svc.mu.Unlock()
		t.Fatal("a restored service's query waited for the service lock")
	}
}

// TestConcurrentInterningOnRestoredView: writers intern new names while
// readers query through a view whose clones share the restored
// dictionaries' storage (under -race). Interning grows the live
// dictionaries; the first view's clones stay exactly as restored.
func TestConcurrentInterningOnRestoredView(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 5
	svc, names := restoredPizza(t, cfg, "alice", "bob")
	v := svc.view.Load()
	restored := []*vocab.Dict{v.users, v.items, v.tags}
	before := [][]string{
		append([]string(nil), names.Users.Names()...),
		append([]string(nil), names.Items.Names()...),
		append([]string(nil), names.Tags.Names()...),
	}

	const writers, readers, iters = 2, 4, 200
	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				u := fmt.Sprintf("new-%d-%d", w, i)
				if err := svc.Befriend("alice", u, 0.5); err != nil {
					errc <- err
					return
				}
				if err := svc.Tag(u, fmt.Sprintf("item-%d-%d", w, i), fmt.Sprintf("tag-%d", i%7)); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var resp search.Response
			seekers := []string{"alice", "bob", "carol", "dave"}
			for i := 0; i < iters; i++ {
				req := search.Request{Seeker: seekers[(r+i)%len(seekers)], Tags: []string{"pizza", "own"}, K: 5}
				if err := svc.DoInto(context.Background(), req, &resp); err != nil {
					errc <- err
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for i, d := range restored {
		if !reflect.DeepEqual(d.Names(), before[i]) {
			t.Fatal("interning changed a dictionary the view was reading")
		}
		for id, name := range before[i] {
			if got, ok := d.ID(name); !ok || got != int32(id) {
				t.Fatalf("view clone lost %q: %d, %v", name, got, ok)
			}
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Do(context.Background(), search.Request{Seeker: fmt.Sprintf("new-%d-%d", writers-1, iters-1), Tags: []string{"tag-3"}, K: 3})
	if err != nil || len(resp.Results) == 0 {
		t.Fatalf("late-added seeker: %+v, %v", resp.Results, err)
	}
}

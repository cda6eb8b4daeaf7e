package durable

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/wal"
)

// TestConcurrentWritersAndReaders hammers the durable service from
// parallel writers and readers; afterwards, recovery must reproduce
// the exact same answers. Run under -race this also proves the
// locking discipline.
func TestConcurrentWritersAndReaders(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.Sync = wal.SyncManual // keep the test fast; Sync before close
	cfg.CheckpointEvery = 50
	s, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-create the universe so readers never race name creation.
	for i := 0; i < 8; i++ {
		if err := s.Tag(fmt.Sprintf("u%d", i), fmt.Sprintf("i%d", i), "seed"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				u := fmt.Sprintf("u%d", (id+i)%8)
				v := fmt.Sprintf("u%d", (id+i+1)%8)
				if i%3 == 0 {
					if err := s.Befriend(u, v, 0.5); err != nil {
						errs <- err
						return
					}
				} else if err := s.Tag(u, fmt.Sprintf("i%d", i%20), fmt.Sprintf("t%d", id)); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := searchExact(s, fmt.Sprintf("u%d", id), []string{"seed"}, 5); err != nil {
					errs <- fmt.Errorf("reader %d: %w", id, err)
					return
				}
				_ = s.Stats()
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Capture answers, crash, recover, compare.
	type key struct{ seeker, tag string }
	answers := map[key][]social_ResultLike{}
	for i := 0; i < 8; i++ {
		for _, tag := range []string{"seed", "t0", "t1", "t2", "t3"} {
			res, err := searchExact(s, fmt.Sprintf("u%d", i), []string{tag}, 5)
			if err != nil {
				continue
			}
			k := key{fmt.Sprintf("u%d", i), tag}
			for _, r := range res {
				answers[k] = append(answers[k], social_ResultLike{r.Item, r.Score})
			}
		}
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for k, want := range answers {
		res, err := searchExact(s2, k.seeker, []string{k.tag}, 5)
		if err != nil {
			t.Fatalf("recovered Search(%s,%s): %v", k.seeker, k.tag, err)
		}
		if len(res) != len(want) {
			t.Fatalf("Search(%s,%s): %d results, want %d", k.seeker, k.tag, len(res), len(want))
		}
		for i, r := range res {
			if r.Item != want[i].item || r.Score != want[i].score {
				t.Fatalf("Search(%s,%s)[%d] = {%s %g}, want {%s %g}",
					k.seeker, k.tag, i, r.Item, r.Score, want[i].item, want[i].score)
			}
		}
	}
}

type social_ResultLike struct {
	item  string
	score float64
}

package social

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/search"
)

// apiWorld builds the standard small test corpus.
func apiWorld(t *testing.T, cfg ServiceConfig) *Service {
	t.Helper()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	friends := []struct {
		a, b string
		w    float64
	}{
		{"alice", "bob", 0.9}, {"bob", "carol", 0.8}, {"alice", "dave", 0.5},
	}
	for _, f := range friends {
		if err := svc.Befriend(f.a, f.b, f.w); err != nil {
			t.Fatal(err)
		}
	}
	tags := []struct{ u, i, tg string }{
		{"bob", "luigis", "pizza"}, {"bob", "luigis", "italian"},
		{"carol", "marios", "pizza"}, {"dave", "marios", "pizza"},
	}
	for _, tg := range tags {
		if err := svc.Tag(tg.u, tg.i, tg.tg); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestDoModesAgreeOnItemSets(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 0
	svc := apiWorld(t, cfg)
	ctx := context.Background()

	// Every mode runs the same exact path: same results, same scores, an
	// Exact answer, and the mode echoed in Explain.
	answers := map[string]string{}
	for _, mode := range []search.Mode{search.ModeAuto, search.ModeExact, search.ModeApprox} {
		resp, err := svc.Do(ctx, search.Request{
			Seeker: "alice", Tags: []string{"pizza"}, K: 2, Mode: mode, Explain: true,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		answers[mode.String()] = fmt.Sprint(resp.Results)
		if resp.Explain == nil || resp.Explain.Mode != mode.String() || !resp.Explain.Exact {
			t.Fatalf("%v: explain %+v", mode, resp.Explain)
		}
	}
	for mode, got := range answers {
		if got != answers["exact"] {
			t.Fatalf("mode %s answered %s, exact %s", mode, got, answers["exact"])
		}
	}
}

func TestDoExplainAndCacheProvenance(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 0
	svc := apiWorld(t, cfg)
	ctx := context.Background()
	req := search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 2, Explain: true}

	first, err := svc.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := svc.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Explain.CacheHit {
		t.Error("first query claims a cache hit")
	}
	if !second.Explain.CacheHit {
		t.Error("repeated query missed the cache")
	}
	if second.Explain.HorizonUsers == 0 || second.Explain.Algorithm == "" {
		t.Errorf("explain incomplete: %+v", second.Explain)
	}
	// A friendship mutation reaching the snapshot invalidates horizons:
	// the next query must miss and carry a newer generation.
	if err := svc.Befriend("alice", "erin", 0.4); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	third, err := svc.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Explain.CacheHit {
		t.Error("query after graph mutation still hit the cache")
	}
	if third.Explain.CacheGeneration <= second.Explain.CacheGeneration {
		t.Errorf("generation did not advance: %d -> %d",
			second.Explain.CacheGeneration, third.Explain.CacheGeneration)
	}
}

func TestDoPerQueryBeta(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 0
	svc := apiWorld(t, cfg)
	ctx := context.Background()

	// Against the service default (β=1, pure social), a β=0 override
	// must rank purely by global popularity: marios has 2 taggers vs
	// luigis' 1 under "pizza".
	zero := 0.0
	resp, err := svc.Do(ctx, search.Request{
		Seeker: "alice", Tags: []string{"pizza"}, K: 2, Beta: &zero, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Explain.Beta != 0 {
		t.Fatalf("explain beta = %g", resp.Explain.Beta)
	}
	if len(resp.Results) != 2 || resp.Results[0].Item != "marios" || resp.Results[0].Score != 2 {
		t.Fatalf("beta=0 results %+v, want marios with global score 2 first", resp.Results)
	}
	// The override is per-query: the next default query scores socially
	// again (proximity-weighted fractions, not integer tag counts).
	def, err := svc.Do(ctx, search.Request{
		Seeker: "alice", Tags: []string{"pizza"}, K: 1, Mode: search.ModeExact, Explain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if def.Explain.Beta != 1 || def.Results[0].Score >= 2 {
		t.Fatalf("default query after override: %+v (beta %g)", def.Results, def.Explain.Beta)
	}
}

func TestDoWindowing(t *testing.T) {
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 0
	svc := apiWorld(t, cfg)
	ctx := context.Background()

	full, err := svc.Do(ctx, search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 2, Mode: search.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Results) != 2 {
		t.Fatalf("full results %+v", full.Results)
	}
	paged, err := svc.Do(ctx, search.Request{
		Seeker: "alice", Tags: []string{"pizza"}, K: 1, Offset: 1, Mode: search.ModeExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(paged.Results) != 1 || paged.Results[0] != full.Results[1] {
		t.Fatalf("offset window %+v, want %+v", paged.Results, full.Results[1])
	}
	minned, err := svc.Do(ctx, search.Request{
		Seeker: "alice", Tags: []string{"pizza"}, K: 5,
		MinScore: full.Results[0].Score, Mode: search.ModeExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(minned.Results) != 1 || minned.Results[0] != full.Results[0] {
		t.Fatalf("min-score window %+v", minned.Results)
	}
}

func TestDoValidationErrors(t *testing.T) {
	svc := apiWorld(t, DefaultServiceConfig())
	ctx := context.Background()
	for name, req := range map[string]search.Request{
		"missing seeker": {Tags: []string{"pizza"}},
		"missing tags":   {Seeker: "alice"},
		"negative k":     {Seeker: "alice", Tags: []string{"pizza"}, K: -1},
	} {
		if _, err := svc.Do(ctx, req); !errors.Is(err, search.ErrInvalid) {
			t.Errorf("%s: err = %v, want ErrInvalid", name, err)
		}
	}
	// Unknown names are request-content errors too (the client sent
	// them), tagged ErrInvalid with the legacy message preserved.
	_, err := svc.Do(ctx, search.Request{Seeker: "nobody", Tags: []string{"pizza"}})
	if !errors.Is(err, search.ErrInvalid) || err.Error() != `social: unknown user "nobody"` {
		t.Errorf("unknown seeker: %v", err)
	}
}

// slowWorld builds a corpus large enough that a single cold query costs
// real work: a long weight-heavy chain with per-user tags, distinct
// seekers so the horizon cache cannot help.
func slowWorld(t *testing.T, users int) *Service {
	t.Helper()
	cfg := DefaultServiceConfig()
	cfg.AutoCompactEvery = 1 << 20 // compact once, at the final Flush
	cfg.BatchWorkers = 1
	cfg.Proximity.MinSigma = 1e-9 // deep horizons: expansion visits ~everyone
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < users-1; i++ {
		if err := svc.Befriend(fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", i+1), 0.99); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < users; i++ {
		if err := svc.Tag(fmt.Sprintf("u%d", i), fmt.Sprintf("i%d", i%50), "t"); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestDoBatchPreCancelled: a batch against an already-cancelled context
// returns promptly with ctx.Err() for every query, having executed
// nothing.
func TestDoBatchPreCancelled(t *testing.T) {
	svc := slowWorld(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := make([]search.Request, 64)
	for i := range reqs {
		reqs[i] = search.Request{Seeker: fmt.Sprintf("u%d", i), Tags: []string{"t"}, K: 3}
	}
	start := time.Now()
	out := svc.DoBatch(ctx, reqs)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("pre-cancelled batch took %s", elapsed)
	}
	for i, br := range out {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("query %d: err = %v, want context.Canceled", i, br.Err)
		}
	}
	if hits, misses := svc.Stats().SeekerCache.Hits, svc.Stats().SeekerCache.Misses; hits+misses != 0 {
		t.Fatalf("cancelled batch still executed queries (hits %d, misses %d)", hits, misses)
	}
}

// TestDoBatchMidFlightCancel: cancelling while a single-worker batch of
// slow queries is in flight fails the unstarted queries with ctx.Err()
// and returns promptly.
func TestDoBatchMidFlightCancel(t *testing.T) {
	svc := slowWorld(t, 3000)
	ctx, cancel := context.WithCancel(context.Background())
	const n = 256
	reqs := make([]search.Request, n)
	for i := range reqs {
		// Distinct seekers: every query pays a full horizon expansion.
		reqs[i] = search.Request{Seeker: fmt.Sprintf("u%d", i), Tags: []string{"t"}, K: 3}
	}
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel()
	}()
	out := svc.DoBatch(ctx, reqs)

	cancelled := 0
	for i, br := range out {
		switch {
		case br.Err == nil:
			if len(br.Response.Results) == 0 {
				t.Fatalf("query %d: success with no results", i)
			}
		case errors.Is(br.Err, context.Canceled):
			cancelled++
		default:
			t.Fatalf("query %d: unexpected error %v", i, br.Err)
		}
	}
	if cancelled == 0 {
		t.Skip("batch finished before cancellation landed (machine too fast for the timing window)")
	}
	t.Logf("%d/%d queries cancelled", cancelled, n)
}

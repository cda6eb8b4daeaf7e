package server

// Concurrency tests for the HTTP layer: searches (single and batch)
// racing friend/tag mutations against both backends. They assert only
// invariants that hold under interleaving (status codes, well-formed
// bodies); the -race run in CI is the real check.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/durable"
	"repro/internal/social"
)

func hammer(t *testing.T, s *Server) {
	t.Helper()
	seedHTTP(t, s)
	const workers, iters = 8, 25
	var wg sync.WaitGroup
	errs := make(chan string, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch i % 4 {
				case 0:
					rec := doJSON(t, s, http.MethodPost, "/v1/friend",
						FriendRequest{A: fmt.Sprintf("w%d", id), B: "alice", Weight: 0.6})
					if rec.Code != http.StatusNoContent {
						errs <- fmt.Sprintf("friend: %d %s", rec.Code, rec.Body)
						return
					}
				case 1:
					rec := doJSON(t, s, http.MethodPost, "/v1/tag",
						TagRequest{User: fmt.Sprintf("w%d", id), Item: fmt.Sprintf("item%d-%d", id, i), Tag: "pizza"})
					if rec.Code != http.StatusNoContent {
						errs <- fmt.Sprintf("tag: %d %s", rec.Code, rec.Body)
						return
					}
				case 2:
					rec := doJSON(t, s, http.MethodPost, "/v2/search", V2Query{Seeker: "alice", Tags: []string{"pizza"}, K: 3})
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("search: %d %s", rec.Code, rec.Body)
						return
					}
					var resp V2SearchResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						errs <- fmt.Sprintf("search body: %v", err)
						return
					}
				default:
					rec := doJSON(t, s, http.MethodPost, "/v2/search/batch", map[string]interface{}{
						"queries": []map[string]interface{}{
							{"seeker": "alice", "tags": []string{"pizza"}, "k": 3},
							{"seeker": "bob", "tags": []string{"pizza", "italian"}, "k": 2},
						},
					})
					if rec.Code != http.StatusOK {
						errs <- fmt.Sprintf("batch: %d %s", rec.Code, rec.Body)
						return
					}
					var resp V2BatchResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						errs <- fmt.Sprintf("batch body: %v", err)
						return
					}
					if len(resp.Results) != 2 {
						errs <- fmt.Sprintf("batch results: %+v", resp.Results)
						return
					}
					for j, e := range resp.Results {
						if e.Error != "" {
							errs <- fmt.Sprintf("batch entry %d: %s", j, e.Error)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestConcurrentMixedTrafficSocialBackend(t *testing.T) {
	s, _ := newTestServer(t)
	hammer(t, s)
}

func TestConcurrentMixedTrafficSocialBackendLazyCompaction(t *testing.T) {
	cfg := social.DefaultServiceConfig()
	cfg.AutoCompactEvery = 5 // mutations and invalidations race searches
	cfg.SeekerCacheSize = 4  // force evictions too
	svc, err := social.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, s)
}

func TestConcurrentMixedTrafficDurableBackend(t *testing.T) {
	if testing.Short() {
		t.Skip("durable backend fsyncs per mutation")
	}
	cfg := durable.DefaultConfig()
	cfg.CheckpointEvery = 50 // checkpoints race traffic
	svc, err := durable.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, err := New(svc)
	if err != nil {
		t.Fatal(err)
	}
	hammer(t, s)
}

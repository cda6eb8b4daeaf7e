// Quickstart: build a small social tagging world through the
// name-addressed service, then answer a personalized top-k query with
// the canonical request/response API — comparing the social and
// pure-global rankings, and dumping the Explain report that shows how
// the engine answered.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/search"
	"repro/internal/social"
)

func main() {
	log.SetFlags(0)

	svc, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		log.Fatal(err)
	}

	// A six-person network: alice's close friends are bob and carol;
	// dave and erin are friends-of-friends; frank is a stranger.
	friends := []struct {
		a, b string
		w    float64
	}{
		{"alice", "bob", 0.9}, {"alice", "carol", 0.7},
		{"bob", "dave", 0.8}, {"carol", "erin", 0.6},
	}
	for _, f := range friends {
		if err := svc.Befriend(f.a, f.b, f.w); err != nil {
			log.Fatal(err)
		}
	}
	// Items are restaurants; the single tag is "pizza". The stranger
	// spams the chain nine times.
	tags := []struct {
		user, item string
		times      int
	}{
		{"bob", "luigi's", 1}, {"carol", "luigi's", 2},
		{"dave", "mario's", 1}, {"frank", "chain-pizza", 9},
	}
	for _, tg := range tags {
		for i := 0; i < tg.times; i++ {
			if err := svc.Tag(tg.user, tg.item, "pizza"); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Fold the pending writes into the queryable snapshot (the default
	// config batches compactions).
	if err := svc.Flush(); err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()
	fmt.Println("alice asks: where should I eat pizza?")
	fmt.Println()

	// The default mode with an explainable answer.
	resp, err := svc.Do(ctx, search.Request{
		Seeker:  "alice",
		Tags:    []string{"pizza"},
		K:       3,
		Explain: true, // Mode defaults to auto, which runs the exact join
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("auto mode (runs the exact join):")
	printResults(resp.Results)
	printExplain(resp.Explain)

	// The same query, β = 0: pure global popularity, what everyone gets.
	zero := 0.0
	global, err := svc.Do(ctx, search.Request{
		Seeker: "alice", Tags: []string{"pizza"}, K: 3, Beta: &zero,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("beta=0 (what everyone else gets):")
	printResults(global.Results)

	fmt.Println("The stranger's chain restaurant tops the global ranking, but")
	fmt.Println("alice's answer is driven by her friends: luigi's wins.")
}

func printResults(rs []search.Result) {
	for i, r := range rs {
		fmt.Printf("  %d. %-12s score %.3f\n", i+1, r.Item, r.Score)
	}
	fmt.Println()
}

func printExplain(ex *search.Explain) {
	fmt.Printf("  explain: algorithm=%s exact=%v\n", ex.Algorithm, ex.Exact)
	fmt.Printf("           horizon=%d users, cache_hit=%v (generation %d)\n",
		ex.HorizonUsers, ex.CacheHit, ex.CacheGeneration)
	fmt.Printf("           certified score bound=%.3f, settled=%d, accesses seq=%d rand=%d\n",
		ex.ScoreBound, ex.UsersSettled, ex.SequentialAccesses, ex.RandomAccesses)
	fmt.Println()
}

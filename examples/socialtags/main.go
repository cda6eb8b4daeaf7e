// Socialtags: a del.icio.us-style bookmark search session over a
// generated corpus. It builds the corpus in memory, then runs the same
// multi-tag query for three different seekers — a loner, an average
// user, and a hub — showing how the same query returns different,
// personally relevant answers, and what each answer cost.
//
// Run with:
//
//	go run ./examples/socialtags
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/proximity"
	"repro/internal/tagstore"
)

func main() {
	log.SetFlags(0)

	params := gen.DeliciousParams().Scale(0.25) // 500 users: quick to build
	ds, err := gen.Generate(params, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %s — %d users, %d edges, %d triples\n\n",
		ds.Name, ds.Graph.NumUsers(), ds.Graph.NumEdges(), ds.Store.NumTriples())

	cfg := core.Config{
		Proximity: proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.05},
		Beta:      1.0,
	}
	engine, err := core.NewEngine(ds.Graph, ds.Store, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Query the two globally hottest tags — the worst case for
	// personalization to matter, and the best showcase for it.
	tags := hottestTags(ds.Store, 2)
	fmt.Printf("query tags: %v (the two most-used tags)\n\n", tags)

	for _, pct := range []int{5, 50, 99} {
		seeker := ds.Graph.DegreePercentileUser(pct)
		q := core.Query{Seeker: seeker, Tags: tags, K: 5}
		ans, err := engine.SocialMerge(q, core.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("seeker at degree percentile %d (user %d, %d friends):\n",
			pct, seeker, ds.Graph.Degree(seeker))
		for i, r := range ans.Results {
			fmt.Printf("  %d. item %-6d score %.3f\n", i+1, r.Item, r.Score)
		}
		fmt.Printf("  certified exact: %v; consulted %d users, %d list accesses\n\n",
			ans.Exact, ans.UsersSettled, ans.Access.Total())
	}

	// Show the non-personalized ranking once for contrast.
	g, err := engine.GlobalTopK(core.Query{Seeker: 0, Tags: tags, K: 5})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("global (non-personalized) ranking of the same query:")
	for i, r := range g.Results {
		fmt.Printf("  %d. item %-6d tf %.0f\n", i+1, r.Item, r.Score)
	}
}

func hottestTags(s *tagstore.Store, n int) []tagstore.TagID {
	type tc struct {
		t  tagstore.TagID
		tf int64
	}
	var all []tc
	for t := 0; t < s.NumTags(); t++ {
		var sum int64
		blocks, _ := s.GlobalBlocks(tagstore.TagID(t))
		for _, b := range blocks {
			for _, p := range b {
				sum += int64(p.TF)
			}
		}
		if sum > 0 {
			all = append(all, tc{tagstore.TagID(t), sum})
		}
	}
	// selection sort of the head: n is tiny
	out := make([]tagstore.TagID, 0, n)
	for len(out) < n && len(all) > 0 {
		best := 0
		for i := range all {
			if all[i].tf > all[best].tf {
				best = i
			}
		}
		out = append(out, all[best].t)
		all = append(all[:best], all[best+1:]...)
	}
	return out
}

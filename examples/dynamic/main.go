// Dynamic: an evolving network session. Starts from a base corpus and
// watches a seeker's answer change as a friend tags something new,
// through the overlay's mutation/compaction cycle.
//
// Run with:
//
//	go run ./examples/dynamic
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/overlay"
	"repro/internal/proximity"
)

func main() {
	log.SetFlags(0)

	ds, err := gen.Generate(gen.DeliciousParams().Scale(0.1), 3)
	if err != nil {
		log.Fatal(err)
	}
	cfg := core.Config{
		Proximity: proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.05},
		Beta:      1,
	}
	o, err := overlay.New(ds.Graph, ds.Store)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := core.NewEngine(ds.Graph, ds.Store, cfg)
	if err != nil {
		log.Fatal(err)
	}

	seeker := ds.Graph.DegreePercentileUser(70)
	wl, err := gen.Workload(ds, gen.WorkloadParams{
		NumQueries: 1, TagsPerQuery: 2, NeighborhoodBias: 1, SeekerPercentile: 70,
	}, 4)
	if err != nil {
		log.Fatal(err)
	}
	tags := wl[0].Tags
	q := core.Query{Seeker: seeker, Tags: tags, K: 5}

	show := func(label string) core.Answer {
		// RefineScores: report exact scores so answers are comparable
		// across snapshots (plain runs report certified lower bounds).
		ans, err := eng.SocialMerge(q, core.Options{RefineScores: true})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", label)
		for i, r := range ans.Results {
			fmt.Printf("  %d. item %-6d score %.3f\n", i+1, r.Item, r.Score)
		}
		fmt.Println()
		return ans
	}

	fmt.Printf("seeker %d, tags %v on an evolving network\n\n", seeker, tags)
	show("initial answer")

	// A close friend discovers a brand-new item and tags it heavily.
	nbrs, wts := ds.Graph.Neighbors(seeker)
	friend := nbrs[0]
	fw := wts[0]
	newItem := o.AddItem()
	for i := 0; i < 12; i++ {
		if err := o.Tag(friend, newItem, tags[i%2]); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("friend %d (weight %.2f) tags new item %d twelve times with tags %v\n",
		friend, fw, newItem, tags)
	show("before compaction (unchanged — mutations are pending)")
	// Compaction folds the pending mutations into a new immutable
	// snapshot; queries see it once an engine is built over it.
	if err := o.Compact(); err != nil {
		log.Fatal(err)
	}
	g, st := o.Snapshot()
	if eng, err = core.NewEngine(g, st, cfg); err != nil {
		log.Fatal(err)
	}
	after := show("after compaction")

	entered := false
	for i, r := range after.Results {
		if r.Item == newItem {
			fmt.Printf("→ the friend's discovery entered the answer at rank %d\n\n", i+1)
			entered = true
		}
	}
	if !entered {
		fmt.Println("→ (discovery below the top-k on this seed)")
	}
}

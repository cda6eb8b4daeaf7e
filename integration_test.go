package repro

// End-to-end integration across the storage and query stack: a corpus
// enters as TSV (the real-data path), round-trips through the binary
// index format, and is then queried by every portfolio algorithm —
// directly and through the planner — with all answers agreeing.

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/load"
	"repro/internal/planner"
	"repro/internal/proximity"
	"repro/internal/tagstore"
)

func TestIntegrationTSVToPlannedQuery(t *testing.T) {
	// 1. A small named corpus arrives as TSV.
	friends := `alice	bob	0.9
bob	carol	0.8
alice	dave	0.5
carol	erin	0.7
`
	tags := `bob	luigis	pizza	2
carol	marios	pizza
dave	marios	pizza
erin	luigis	pizza
erin	sushiko	sushi
alice	sushiko	sushi
`
	c, err := load.Read(strings.NewReader(friends), strings.NewReader(tags))
	if err != nil {
		t.Fatal(err)
	}

	// 2. Persist to the binary format and reload.
	path := filepath.Join(t.TempDir(), "corpus.frnd")
	if err := index.WriteFile(path, c.Graph, c.Store); err != nil {
		t.Fatal(err)
	}
	g, store, err := index.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Build the engine with the full portfolio attached.
	e, err := core.NewEngine(g, store, core.Config{
		Proximity: proximity.Params{Alpha: 0.8, SelfWeight: 1},
		Beta:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.AttachItemIndex(core.BuildItemIndex(store))

	alice, ok := c.Names.Users.ID("alice")
	if !ok {
		t.Fatal("alice lost in translation")
	}
	pizza, ok := c.Names.Tags.ID("pizza")
	if !ok {
		t.Fatal("pizza lost in translation")
	}
	q := core.Query{Seeker: alice, Tags: []tagstore.TagID{pizza}, K: 3}

	// 4. Every algorithm must return the same certified item set.
	ref, err := e.ExactSocial(q)
	if err != nil {
		t.Fatal(err)
	}
	refSet := make(map[int32]bool)
	for _, r := range ref.Results {
		refSet[r.Item] = true
	}
	algos := map[string]func() (core.Answer, error){
		"SocialMerge":  func() (core.Answer, error) { return e.SocialMerge(q, core.Options{}) },
		"ContextMerge": func() (core.Answer, error) { return e.ContextMerge(q, core.Options{}) },
		"SocialTA":     func() (core.Answer, error) { return e.SocialTA(q, core.Options{}) },
	}
	for name, run := range algos {
		ans, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !ans.Exact || len(ans.Results) != len(ref.Results) {
			t.Fatalf("%s: %+v vs ref %+v", name, ans.Results, ref.Results)
		}
		for _, r := range ans.Results {
			if !refSet[r.Item] {
				t.Fatalf("%s returned item %d outside the exact set", name, r.Item)
			}
		}
	}

	// 5. The planner must execute the same query correctly whichever
	// algorithm it picks, before and after calibration.
	p, err := planner.New(e)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		ans, plan, err := p.Execute(q)
		if err != nil {
			t.Fatalf("%s planned %v: %v", stage, plan.Alg, err)
		}
		if !ans.Exact {
			t.Fatalf("%s planned %v: inexact answer", stage, plan.Alg)
		}
		for _, r := range ans.Results {
			if !refSet[r.Item] {
				t.Fatalf("%s planned %v: item %d outside exact set", stage, plan.Alg, r.Item)
			}
		}
	}
	check("uncalibrated")
	var calib []core.Query
	for i := 0; i < 12; i++ {
		calib = append(calib, core.Query{Seeker: alice, Tags: []tagstore.TagID{pizza}, K: 1 + i%4})
	}
	if err := p.Calibrate(calib); err != nil {
		t.Fatal(err)
	}
	check("calibrated")

	// 6. Names translate back: the expected winner is luigis
	// (bob 0.72·2 + erin 0.403·1 = 1.84 vs marios 0.58+0.4 = 0.98).
	winner, _ := c.Names.Items.Name(ref.Results[0].Item)
	if winner != "luigis" {
		rows := make([]string, 0, len(ref.Results))
		for _, r := range ref.Results {
			n, _ := c.Names.Items.Name(r.Item)
			rows = append(rows, fmt.Sprintf("%s=%.3f", n, r.Score))
		}
		t.Fatalf("winner = %s (%s), want luigis", winner, strings.Join(rows, " "))
	}
}

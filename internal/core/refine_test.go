package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/tagstore"
)

// TestRefineScoresMatchExact: with RefineScores the reported scores are
// the exact (floored-model) scores, not just lower bounds.
func TestRefineScoresMatchExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Proximity: proximity.Params{Alpha: 0.7, SelfWeight: 1, MinSigma: 0.05},
			Beta:      1,
		}
		e, ds := randomCorpusEngine(t, seed, cfg)
		for trial := 0; trial < 3; trial++ {
			q := Query{
				Seeker: graph.UserID(rng.Intn(ds.Graph.NumUsers())),
				Tags:   []tagstore.TagID{tagstore.TagID(rng.Intn(20))},
				K:      1 + rng.Intn(8),
			}
			refined, err := e.SocialMerge(q, Options{RefineScores: true})
			if err != nil || !refined.Exact {
				return false
			}
			full, err := e.ExactSocial(Query{Seeker: q.Seeker, Tags: q.Tags, K: e.Store().NumItems()})
			if err != nil {
				return false
			}
			exactScore := map[int32]float64{}
			for _, r := range full.Results {
				exactScore[r.Item] = r.Score
			}
			for _, r := range refined.Results {
				if math.Abs(r.Score-exactScore[r.Item]) > 1e-9 {
					t.Logf("seed %d: item %d refined %g exact %g", seed, r.Item, r.Score, exactScore[r.Item])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestRefineScoresStillRespectsCutoffs: refinement is orthogonal to the
// approximation knobs.
func TestRefineScoresStillRespectsCutoffs(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	ans, err := e.SocialMerge(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3},
		Options{RefineScores: true, MaxUsers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ans.Exact {
		t.Fatal("cutoff with refinement still certified")
	}
	if ans.UsersSettled != 1 {
		t.Fatalf("settled %d users, want 1", ans.UsersSettled)
	}
}

// TestRefineScoresSettlesWholeHorizon: without a floor, refinement
// consumes the connected component.
func TestRefineScoresSettlesWholeHorizon(t *testing.T) {
	e := tinyEngine(t, DefaultConfig())
	ans, err := e.SocialMerge(Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 1},
		Options{RefineScores: true})
	if err != nil {
		t.Fatal(err)
	}
	// seeker 0's component is {0,1,2}
	if ans.UsersSettled != 3 {
		t.Fatalf("settled %d users, want full component of 3", ans.UsersSettled)
	}
	if !ans.Exact {
		t.Fatal("refined full run not certified")
	}
	// exact score of item 0 is 1.0
	if len(ans.Results) == 0 || math.Abs(ans.Results[0].Score-1.0) > 1e-12 {
		t.Fatalf("refined top = %v, want exact score 1.0", ans.Results)
	}
}

// TestRefineJoinMatchesSettleLoop: over a materialized horizon the
// tag-pivoted join returns what the settle-one-user loop returns over
// the same horizon (a MaxUsers budget past its end never fires but keeps
// the merge on mainLoop) and, where the horizon is complete, what the
// lazy expansion returns — results, Exact and every access counter —
// for β = 1, a blend and pure-global scoring, with a repeated query tag,
// and for truncated horizons, which reach the residual certification.
func TestRefineJoinMatchesSettleLoop(t *testing.T) {
	for seed, beta := range [...]float64{1, 0.6, 0, 1} {
		cfg := Config{
			Proximity: proximity.Params{Alpha: 0.7, SelfWeight: 1, MinSigma: 0.05},
			Beta:      beta,
		}
		e, ds := randomCorpusEngine(t, int64(seed), cfg)
		rng := rand.New(rand.NewSource(int64(seed)))
		tag := func() tagstore.TagID { return tagstore.TagID(rng.Intn(ds.Store.NumTags())) }
		for s := 0; s < ds.Graph.NumUsers(); s++ {
			first := tag()
			q := Query{Seeker: graph.UserID(s), Tags: []tagstore.TagID{first, tag(), first}, K: 1 + rng.Intn(8)}
			for _, maxUsers := range [...]int{0, 1 + rng.Intn(6)} {
				h, err := e.MaterializeHorizon(q.Seeker, maxUsers)
				if err != nil {
					t.Fatal(err)
				}
				join, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true})
				if err != nil {
					t.Fatal(err)
				}
				loop, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true, MaxUsers: h.Size() + 1})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(join, loop) {
					t.Fatalf("β=%g %+v over %d of its horizon (residual %g):\njoin %+v\nloop %+v", beta, q, h.Size(), h.Residual(), join, loop)
				}
				if h.Residual() > 0 {
					continue
				}
				lazy, err := e.SocialMerge(q, Options{RefineScores: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(join, lazy) {
					t.Fatalf("β=%g %+v over its whole horizon of %d:\njoin %+v\nlazy %+v", beta, q, h.Size(), join, lazy)
				}
			}
		}
	}
}

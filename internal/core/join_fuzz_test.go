package core

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/tagstore"
)

// FuzzJoinMatchesSettleLoop holds the join to the settle loop (a
// MaxUsers budget one past the horizon never fires but keeps the merge
// on mainLoop) and to the lazy merge — results, Exact and every access
// counter — over corpora built for ties: every edge has one weight, so
// users the same number of hops from the seeker share a proximity, and
// every tf is small, so items often tie at the k-th place and the
// item-id tie-break decides who is in. Item ids reach past one 64-bit
// word, so tied items can lie in different words of the join's seen
// bitmap. Every seeker is queried for every k from 1 to NumItems().
//
// knobs picks the number of tags, the edge weight and β (1 twice as
// often as 0.6 or 0, since β = 1 is the dense join). ops is read in
// byte triples (a, b, c): c%4 == 0 adds the edge (a, b), otherwise user
// a tags item b under tag (c/4)%tags c%4 times; repeated triples add up.
func FuzzJoinMatchesSettleLoop(f *testing.F) {
	// Seeker 0 reaches item 9 with score 3 and items 5, 70 and 100 with
	// score 2 each: a tie across two bitmap words, which at k = 2 and 3
	// only the item-id tie-break settles.
	f.Add(uint8(4), uint8(130), uint8(0), []byte{0, 5, 1, 0, 70, 1, 0, 100, 2, 0, 1, 0, 1, 2, 0, 1, 70, 1, 2, 5, 1, 2, 9, 3, 3, 100, 1})
	f.Add(uint8(8), uint8(200), uint8(4), []byte{
		0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 0, 5, 0, 5, 6, 0, 6, 7, 0,
		0, 10, 1, 1, 74, 1, 2, 138, 1, 3, 10, 5, 4, 74, 5, 5, 138, 5, 6, 190, 2, 7, 11, 1, 1, 190, 1,
	})
	f.Add(uint8(6), uint8(64), uint8(11), []byte{0, 1, 0, 0, 2, 0, 1, 3, 0, 2, 4, 0, 0, 3, 1, 1, 3, 1, 2, 7, 2, 3, 63, 1, 4, 7, 5, 4, 0, 1})
	f.Fuzz(func(t *testing.T, users, items, knobs uint8, ops []byte) {
		nu, ni, nt := 1+int(users)%10, 1+int(items), 1+int(knobs)%3
		weight := [...]float64{1, 0.5, 0.8}[int(knobs/3)%3]
		beta := [...]float64{1, 0.6, 1, 0}[int(knobs/9)%4]
		gb := graph.NewBuilder(nu)
		tb := tagstore.NewBuilder(nu, ni, nt)
		for i := 0; i+2 < len(ops) && i < 3*256; i += 3 {
			a, b, c := int(ops[i]), int(ops[i+1]), int(ops[i+2])
			if c%4 != 0 {
				tb.AddCount(int32(a%nu), tagstore.ItemID(b%ni), tagstore.TagID(c/4%nt), int32(c%4))
			} else if a%nu != b%nu {
				gb.AddEdge(graph.UserID(a%nu), graph.UserID(b%nu), weight)
			}
		}
		g, err := gb.Build()
		if err != nil {
			t.Fatal(err)
		}
		st, err := tb.Build()
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, st, Config{
			Proximity: proximity.Params{Alpha: 1, SelfWeight: 1, MinSigma: 0.05},
			Beta:      beta,
		})
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < nu; s++ {
			h, err := e.MaterializeHorizon(graph.UserID(s), 0)
			if err != nil {
				t.Fatal(err)
			}
			first := tagstore.TagID(s % nt)
			for k := 1; k <= ni; k++ {
				q := Query{Seeker: graph.UserID(s), Tags: []tagstore.TagID{first, tagstore.TagID((s + 1) % nt), first}, K: k}
				join, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true})
				if err != nil {
					t.Fatal(err)
				}
				loop, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true, MaxUsers: h.Size() + 1})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(join, loop) {
					t.Fatalf("β=%g %+v over its horizon of %d:\njoin %+v\nloop %+v", beta, q, h.Size(), join, loop)
				}
				lazy, err := e.SocialMerge(q, Options{RefineScores: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(join, lazy) {
					t.Fatalf("β=%g %+v over its horizon of %d:\njoin %+v\nlazy %+v", beta, q, h.Size(), join, lazy)
				}
			}
		}
	})
}

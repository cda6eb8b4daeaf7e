package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/tagstore"
)

// cancelWorld builds a small engine for the cancellation tests.
func cancelWorld(t *testing.T) *Engine {
	t.Helper()
	const users = 40
	gb := graph.NewBuilder(users)
	for i := 0; i < users-1; i++ {
		gb.AddEdge(graph.UserID(i), graph.UserID(i+1), 0.9)
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := tagstore.NewBuilder(users, users, 2)
	for i := 0; i < users; i++ {
		tb.Add(graph.UserID(i), tagstore.ItemID(i), 0)
		tb.Add(graph.UserID(i), tagstore.ItemID(i), 1)
	}
	store, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, store, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	e.AttachItemIndex(BuildItemIndex(store))
	return e
}

// TestCancelledContextAbortsQueries: every query loop honours a context
// that is already cancelled, returning ctx.Err() instead of an answer.
func TestCancelledContextAbortsQueries(t *testing.T) {
	e := cancelWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0, 1}, K: 5}
	opts := Options{Ctx: ctx}

	if _, err := e.SocialMerge(q, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("SocialMerge: err = %v, want context.Canceled", err)
	}
	if _, err := e.ContextMerge(q, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("ContextMerge: err = %v, want context.Canceled", err)
	}
	if _, err := e.SocialTA(q, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("SocialTA: err = %v, want context.Canceled", err)
	}
	if _, err := e.ExactSocialCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("ExactSocialCtx: err = %v, want context.Canceled", err)
	}
	if _, err := e.GlobalTopKCtx(ctx, q); !errors.Is(err, context.Canceled) {
		t.Errorf("GlobalTopKCtx: err = %v, want context.Canceled", err)
	}
	if _, err := e.MaterializeHorizonCtx(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("MaterializeHorizonCtx: err = %v, want context.Canceled", err)
	}
	h, err := e.MaterializeHorizon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SocialMergeWithHorizon(q, h, opts); !errors.Is(err, context.Canceled) {
		t.Errorf("SocialMergeWithHorizon: err = %v, want context.Canceled", err)
	}
}

// doneFromCall is a context whose Done channel is open on the first
// from−1 calls and closed from the from-th on: a merge polling it
// passes from−1 checkpoints and stops at the next.
type doneFromCall struct {
	context.Context
	from, calls int
}

func (c *doneFromCall) Done() <-chan struct{} {
	c.calls++
	if c.calls < c.from {
		return nil
	}
	done := make(chan struct{})
	close(done)
	return done
}

func (c *doneFromCall) Err() error {
	if c.calls < c.from {
		return nil
	}
	return context.Canceled
}

// TestAbortedRefineLeavesPooledRunClean: a RefineScores join stopped
// part way returns its run to the pool with the top-k selection still
// deferred to a finish that never ran, and perhaps with horizon users'
// rank marks set or the scores of the users it did sweep in its dense
// per-item scratch. The merges that reuse the run must not inherit any
// of it: each non-refine merge and each refine join after such an
// abort answers exactly what a fresh engine does — results, Exact,
// accesses and users settled.
//
// The join polls its context once per 64 horizon users while it marks
// ranks, then once per 64 ranks its sweep reaches. Over a line where
// only user 0 tags, the abort at the second poll lands in the marking;
// over a line where every user tags, an abort two polls after the
// marking lands mid-sweep, with 64 users' scores swept.
func TestAbortedRefineLeavesPooledRunClean(t *testing.T) {
	const users = 600 // more than the join's 64-user checkpoint stride
	for _, c := range []struct {
		name   string
		engine func(testing.TB, int) *Engine
		// from picks the poll the abort lands at, given the horizon.
		from func(h *SeekerHorizon) int
	}{
		{"marking", lineEngine, func(*SeekerHorizon) int { return 2 }},
		{"sweep", taggedLineEngine, func(h *SeekerHorizon) int { return (h.Size()+63)/64 + 2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 1}
			fresh := c.engine(t, users)
			want, err := fresh.SocialMerge(q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			freshH, err := fresh.MaterializeHorizon(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantJoin, err := fresh.SocialMergeWithHorizon(q, freshH, Options{RefineScores: true})
			if err != nil {
				t.Fatal(err)
			}
			e := c.engine(t, users)
			h, err := e.MaterializeHorizon(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if h.Size() <= 64 {
				t.Fatalf("horizon of %d users never reaches the join's second checkpoint", h.Size())
			}
			abort := func() {
				t.Helper()
				ctx := &doneFromCall{Context: context.Background(), from: c.from(h)}
				if _, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true, Ctx: ctx}); !errors.Is(err, context.Canceled) {
					t.Fatalf("refine join: err = %v, want context.Canceled at its checkpoint %d", err, ctx.from)
				}
			}
			for i := 0; i < 10; i++ {
				abort()
				got, err := e.SocialMerge(q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("merge %d after an aborted refine join:\ngot  %+v\nwant %+v", i, got, want)
				}
				abort()
				got, err = e.SocialMergeWithHorizon(q, h, Options{RefineScores: true})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, wantJoin) {
					t.Fatalf("refine join %d after an aborted refine join:\ngot  %+v\nwant %+v", i, got, wantJoin)
				}
			}
		})
	}
}

// TestAbortedJoinLeavesNoRankMarks: a join stopped while it marks its
// horizon's ranks clears the marks it set. A run's rank array serves
// every engine its pool does, so a mark left behind would put a user
// of the aborted query's horizon into the next query's on another
// engine: here user 0, whose list the next query's horizon lacks.
func TestAbortedJoinLeavesNoRankMarks(t *testing.T) {
	const users = 600
	line := lineEngine(t, users)
	h, err := line.MaterializeHorizon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// No edges: user 599's horizon is user 599 alone.
	g, err := graph.NewBuilder(users).Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := tagstore.NewBuilder(users, 2, 1)
	tb.Add(0, 0, 0)
	tb.Add(users-1, 1, 0)
	store, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	lone, err := NewEngine(g, store, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Seeker: users - 1, Tags: []tagstore.TagID{0}, K: 2}
	loneH, err := lone.MaterializeHorizon(q.Seeker, 0)
	if err != nil {
		t.Fatal(err)
	}
	refine := Options{RefineScores: true}
	var want, got Answer
	if err := new(mergeRun).merge(lone, q, nil, loneH, refine, &want); err != nil {
		t.Fatal(err)
	}
	var r mergeRun
	abort := Options{RefineScores: true, Ctx: &doneFromCall{Context: context.Background(), from: 2}}
	if err := r.merge(line, Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 1}, nil, h, abort, &got); !errors.Is(err, context.Canceled) {
		t.Fatalf("refine join: err = %v, want context.Canceled at its second checkpoint", err)
	}
	if err := r.merge(lone, q, nil, loneH, refine, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join after a join aborted while marking:\ngot  %+v\nwant %+v", got, want)
	}
}

// taggedLineEngine is lineEngine with every user tagging: user u tags
// item u mod 37 under tag 0.
func taggedLineEngine(t testing.TB, n int) *Engine {
	t.Helper()
	gb := graph.NewBuilder(n)
	for u := 0; u < n-1; u++ {
		gb.AddEdge(graph.UserID(u), graph.UserID(u+1), 1)
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb := tagstore.NewBuilder(n, 37, 1)
	for u := 0; u < n; u++ {
		tb.Add(graph.UserID(u), tagstore.ItemID(u%37), 0)
	}
	store, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(g, store, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestNilContextStillWorks: zero-value Options remain valid — the
// checkpoints must be no-ops without a context.
func TestNilContextStillWorks(t *testing.T) {
	e := cancelWorld(t)
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 3}
	ans, err := e.SocialMerge(q, Options{})
	if err != nil || len(ans.Results) == 0 {
		t.Fatalf("SocialMerge without ctx: %v (results %v)", err, ans.Results)
	}
	// An un-cancelled context changes nothing about the answer.
	ans2, err := e.SocialMerge(q, Options{Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans2.Results) != len(ans.Results) {
		t.Fatalf("ctx-carrying run returned %d results, want %d", len(ans2.Results), len(ans.Results))
	}
}

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

// doneFromSecondCall is a context whose Done channel is open on the
// first call and closed from the second on: a merge polling it passes
// its first checkpoint and stops at the next.
type doneFromSecondCall struct {
	context.Context
	calls int
}

func (c *doneFromSecondCall) Done() <-chan struct{} {
	c.calls++
	if c.calls < 2 {
		return nil
	}
	done := make(chan struct{})
	close(done)
	return done
}

func (c *doneFromSecondCall) Err() error {
	if c.calls < 2 {
		return nil
	}
	return context.Canceled
}

// TestAbortedRefineLeavesPooledRunClean: a RefineScores join stopped
// mid-sweep returns its run to the pool with the top-k selection still
// deferred to a finish that never ran, and with the scores of the users
// it did sweep in its dense per-item scratch. The merges that reuse the
// run must not inherit either: each non-refine merge and each refine
// join after such an abort answers exactly what a fresh engine does —
// results, Exact, accesses and users settled.
func TestAbortedRefineLeavesPooledRunClean(t *testing.T) {
	const users = 600 // more than the join's 64-user checkpoint stride
	q := Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 1}
	fresh := lineEngine(t, users)
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
	e := lineEngine(t, users)
	h, err := e.MaterializeHorizon(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() <= 64 {
		t.Fatalf("horizon of %d users never reaches the join's second checkpoint", h.Size())
	}
	abort := func() {
		t.Helper()
		ctx := &doneFromSecondCall{Context: context.Background()}
		if _, err := e.SocialMergeWithHorizon(q, h, Options{RefineScores: true, Ctx: ctx}); !errors.Is(err, context.Canceled) {
			t.Fatalf("refine join: err = %v, want context.Canceled at its second checkpoint", err)
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

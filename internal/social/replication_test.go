package social

import (
	"context"
	"errors"
	"testing"

	"repro/internal/search"
)

// TestReplicationCursorDiscipline pins Apply's contract for stamped records:
// in-order records apply and advance the cursor, duplicates are
// idempotent no-ops, and a record ahead of cursor+1 is refused with
// ErrReplicationGap without touching state.
func TestReplicationCursorDiscipline(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.AppliedLSN(); got != 0 {
		t.Fatalf("fresh cursor = %d, want 0", got)
	}
	if err := svc.Apply(Mutation{Kind: KindBefriend, LSN: 1, User: "alice", Friend: "bob", Weight: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Apply(Mutation{Kind: KindTag, LSN: 2, User: "bob", Item: "luigis", Tag: "pizza"}); err != nil {
		t.Fatal(err)
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor = %d, want 2", got)
	}

	// Gap: record 5 cannot apply at cursor 2, and nothing changes.
	if err := svc.Apply(Mutation{Kind: KindBefriend, LSN: 5, User: "carol", Friend: "dave", Weight: 0.5}); !errors.Is(err, ErrReplicationGap) {
		t.Fatalf("gap err = %v, want ErrReplicationGap", err)
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor after gap = %d, want 2", got)
	}
	if users := svc.Users(); len(users) != 2 {
		t.Fatalf("users after refused record = %v, want alice+bob only", users)
	}

	// Duplicate: re-delivering record 2 (or 1) is a silent no-op.
	if err := svc.Apply(Mutation{Kind: KindTag, LSN: 2, User: "bob", Item: "luigis", Tag: "pizza"}); err != nil {
		t.Fatalf("duplicate record err = %v, want nil", err)
	}
	if err := svc.Apply(Mutation{Kind: KindBefriend, LSN: 1, User: "alice", Friend: "bob", Weight: 0.9}); err != nil {
		t.Fatalf("duplicate record err = %v, want nil", err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := svc.Do(context.Background(), search.Request{
		Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Item != "luigis" {
		t.Fatalf("results = %+v, want luigis once (dedup must not re-apply)", resp.Results)
	}

	// lsn 0 is a plain mutation: applies, cursor untouched.
	if err := svc.Apply(Mutation{Kind: KindBefriend, LSN: 0, User: "erin", Friend: "frank", Weight: 0.4}); err != nil {
		t.Fatal(err)
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor after lsn-0 mutation = %d, want 2", got)
	}
}

// TestReplicationCursorAdvancesOnDeterministicRejection pins the
// lockstep rule: a record every replica rejects identically (here a
// self-edge) still advances the cursor — skipping it in lockstep is
// what keeps the fleet bit-identical — and the next record applies
// cleanly.
func TestReplicationCursorAdvancesOnDeterministicRejection(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Apply(Mutation{Kind: KindBefriend, LSN: 1, User: "alice", Friend: "alice", Weight: 0.5}); err == nil {
		t.Fatal("self-edge record accepted")
	}
	if got := svc.AppliedLSN(); got != 1 {
		t.Fatalf("cursor after rejected record = %d, want 1 (processed)", got)
	}
	if err := svc.Apply(Mutation{Kind: KindBefriend, LSN: 2, User: "alice", Friend: "bob", Weight: 0.5}); err != nil {
		t.Fatalf("record after rejected one: %v", err)
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor = %d, want 2", got)
	}
}

// TestReplicatedStreamMatchesDirect feeds the same mutation stream once
// through the plain entry points and once through the LSN-stamped ones
// (with duplicates injected) and demands bit-identical answers.
func TestReplicatedStreamMatchesDirect(t *testing.T) {
	direct, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	replicated, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	type mut struct {
		friend  bool
		a, b, c string
		w       float64
	}
	muts := []mut{
		{friend: true, a: "u0", b: "u1", w: 0.9},
		{friend: true, a: "u1", b: "u2", w: 0.7},
		{friend: false, a: "u1", b: "it0", c: "pizza"},
		{friend: true, a: "u2", b: "u3", w: 0.8},
		{friend: false, a: "u2", b: "it1", c: "pizza"},
		{friend: true, a: "u0", b: "u3", w: 0.3},
		{friend: false, a: "u3", b: "it1", c: "sushi"},
	}
	for i, m := range muts {
		lsn := uint64(i + 1)
		if m.friend {
			if err := direct.Befriend(m.a, m.b, m.w); err != nil {
				t.Fatal(err)
			}
			if err := replicated.Apply(Mutation{Kind: KindBefriend, LSN: lsn, User: m.a, Friend: m.b, Weight: m.w}); err != nil {
				t.Fatal(err)
			}
			// Redelivery (an at-least-once transport) must be harmless.
			if err := replicated.Apply(Mutation{Kind: KindBefriend, LSN: lsn, User: m.a, Friend: m.b, Weight: m.w}); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := direct.Tag(m.a, m.b, m.c); err != nil {
				t.Fatal(err)
			}
			if err := replicated.Apply(Mutation{Kind: KindTag, LSN: lsn, User: m.a, Item: m.b, Tag: m.c}); err != nil {
				t.Fatal(err)
			}
			if err := replicated.Apply(Mutation{Kind: KindTag, LSN: lsn, User: m.a, Item: m.b, Tag: m.c}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := direct.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := replicated.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, seeker := range []string{"u0", "u1", "u2", "u3"} {
		for _, tag := range []string{"pizza", "sushi"} {
			req := search.Request{Seeker: seeker, Tags: []string{tag}, K: 5, Mode: search.ModeExact}
			want, werr := direct.Do(ctx, req)
			got, gerr := replicated.Do(ctx, req)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%s/%s: direct err %v, replicated err %v", seeker, tag, werr, gerr)
			}
			if werr != nil {
				continue
			}
			if len(want.Results) != len(got.Results) {
				t.Fatalf("%s/%s: %d vs %d results", seeker, tag, len(want.Results), len(got.Results))
			}
			for i := range want.Results {
				if want.Results[i] != got.Results[i] {
					t.Fatalf("%s/%s result %d: direct %+v, replicated %+v",
						seeker, tag, i, want.Results[i], got.Results[i])
				}
			}
		}
	}
}

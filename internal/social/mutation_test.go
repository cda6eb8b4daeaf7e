package social

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/tagstore"
	"repro/internal/vocab"
)

// recordingJournal is an in-memory Journal: it keeps what was appended
// and checkpointed, and fails an append on demand (the full disk).
type recordingJournal struct {
	appended    []Mutation
	checkpoints int
	cursor      uint64 // of the last checkpoint
	failAppend  error
}

func (j *recordingJournal) Append(m Mutation) (bool, error) {
	if j.failAppend != nil {
		return false, j.failAppend
	}
	j.appended = append(j.appended, m)
	return false, nil
}

func (j *recordingJournal) Checkpoint(g *graph.Graph, st *tagstore.Store, names *vocab.Set, cursor uint64) error {
	j.checkpoints++
	j.cursor = cursor
	return nil
}
func (j *recordingJournal) Sync() error  { return nil }
func (j *recordingJournal) Close() error { return nil }
func (j *recordingJournal) Stats() JournalStats {
	return JournalStats{WritesSinceCheckpoint: len(j.appended)}
}

// sizes is everything a rejected mutation could have grown.
type sizes struct {
	users                             []string
	graphUsers, storeItems, storeTags int
	userNames, itemNames, tagNames    int
}

func sizesOf(t *testing.T, svc *Service) sizes {
	t.Helper()
	g, st, names, err := svc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return sizes{
		users:      svc.Users(),
		graphUsers: g.NumUsers(), storeItems: st.NumItems(), storeTags: st.NumTags(),
		userNames: names.Users.Len(), itemNames: names.Items.Len(), tagNames: names.Tags.Len(),
	}
}

// TestRejectedMutationsChangeNothing: the funnel validates before any
// state changes, so a rejected mutation interns no name, grows no
// universe and reaches no journal — a volatile and a journaled replica
// fed the same accept/reject script stay bit-identical, whichever of
// them used to reject up front. A rejected plain write leaves the
// cursor alone; a rejected stamped record still counts as processed.
func TestRejectedMutationsChangeNothing(t *testing.T) {
	type bad struct {
		name string
		m    Mutation
	}
	var cases []bad
	for _, w := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		cases = append(cases, bad{fmt.Sprintf("weight %g", w),
			Mutation{Kind: KindBefriend, User: "ghost-a", Friend: "ghost-b", Weight: w}})
	}
	cases = append(cases, bad{"self-edge", Mutation{Kind: KindBefriend, User: "ghost-a", Friend: "ghost-a", Weight: 0.5}})
	for _, n := range []struct{ what, name string }{
		{"empty", ""}, {"whitespace-only", " \t"}, {"line feed", "gh\nost"}, {"carriage return", "gh\rost"},
	} {
		cases = append(cases,
			bad{n.what + " befriend user", Mutation{Kind: KindBefriend, User: n.name, Friend: "ghost-b", Weight: 0.5}},
			bad{n.what + " befriend friend", Mutation{Kind: KindBefriend, User: "ghost-a", Friend: n.name, Weight: 0.5}},
			bad{n.what + " tag user", Mutation{Kind: KindTag, User: n.name, Item: "ghost-i", Tag: "ghost-t"}},
			bad{n.what + " tag item", Mutation{Kind: KindTag, User: "ghost-a", Item: n.name, Tag: "ghost-t"}},
			bad{n.what + " tag tag", Mutation{Kind: KindTag, User: "ghost-a", Item: "ghost-i", Tag: n.name}},
		)
	}

	newPair := func() (volatile, journaled *Service, j *recordingJournal) {
		var err error
		if volatile, err = NewService(DefaultServiceConfig()); err != nil {
			t.Fatal(err)
		}
		if journaled, err = NewService(DefaultServiceConfig()); err != nil {
			t.Fatal(err)
		}
		j = &recordingJournal{}
		journaled.AttachJournal(j)
		return volatile, journaled, j
	}
	volatile, journaled, j := newPair()
	lsn := uint64(0)
	accepted := 0
	for _, svc := range []*Service{volatile, journaled} {
		if err := svc.Befriend("alice", "bob", 0.9); err != nil {
			t.Fatal(err)
		}
		if err := svc.Tag("bob", "luigis", "pizza"); err != nil {
			t.Fatal(err)
		}
	}
	accepted += 2
	for _, stamped := range []bool{false, true} {
		for i, tc := range cases {
			m := tc.m
			if stamped {
				lsn++
				m.LSN = lsn
			}
			for _, svc := range []*Service{volatile, journaled} {
				before := sizesOf(t, svc)
				cursor := svc.AppliedLSN()
				err := svc.Apply(m)
				if !errors.Is(err, search.ErrInvalid) {
					t.Fatalf("%s (stamped=%v): err = %v, want ErrInvalid", tc.name, stamped, err)
				}
				if after := sizesOf(t, svc); !reflect.DeepEqual(after, before) {
					t.Fatalf("%s (stamped=%v): rejected mutation changed state:\n before %+v\n after  %+v", tc.name, stamped, before, after)
				}
				want := cursor
				if stamped {
					want = m.LSN
				}
				if got := svc.AppliedLSN(); got != want {
					t.Fatalf("%s (stamped=%v): cursor = %d, want %d", tc.name, stamped, got, want)
				}
			}
			// Accepted writes between the rejections keep ids moving, so a
			// ghost interned by one service and not the other would show.
			if i%5 == 0 {
				lsn++
				for _, svc := range []*Service{volatile, journaled} {
					if err := svc.Apply(Mutation{Kind: KindTag, LSN: lsn, User: fmt.Sprintf("u%d", i), Item: fmt.Sprintf("i%d", i), Tag: "pizza"}); err != nil {
						t.Fatal(err)
					}
				}
				accepted++
			}
		}
	}
	if len(j.appended) != accepted {
		t.Fatalf("journal holds %d records for %d accepted mutations: a rejection was journaled", len(j.appended), accepted)
	}
	vg, vst, vnames, vlsn, err := volatile.SnapshotWithCursor()
	if err != nil {
		t.Fatal(err)
	}
	jg, jst, jnames, jlsn, err := journaled.SnapshotWithCursor()
	if err != nil {
		t.Fatal(err)
	}
	if vlsn != jlsn || !reflect.DeepEqual(vg, jg) || !reflect.DeepEqual(vst, jst) || !reflect.DeepEqual(vnames, jnames) {
		t.Fatalf("volatile and journaled services diverged on the same script (cursors %d / %d)", vlsn, jlsn)
	}
}

// TestJournalAppendFailureAppliesNothing: a journal that cannot record
// the mutation (disk full) leaves memory, cursor and log as they were,
// and the service keeps working once the journal does.
func TestJournalAppendFailureAppliesNothing(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	svc.AttachJournal(j)
	if err := svc.Apply(Mutation{Kind: KindBefriend, LSN: 1, User: "alice", Friend: "bob", Weight: 0.9}); err != nil {
		t.Fatal(err)
	}
	diskFull := errors.New("no space left on device")
	j.failAppend = diskFull
	before := sizesOf(t, svc)
	if err := svc.Apply(Mutation{Kind: KindTag, LSN: 2, User: "carol", Item: "marios", Tag: "pizza"}); !errors.Is(err, diskFull) {
		t.Fatalf("stamped tag on a full disk: %v, want the journal's error", err)
	}
	if err := svc.Befriend("carol", "dave", 0.5); !errors.Is(err, diskFull) {
		t.Fatalf("Befriend on a full disk: %v, want the journal's error", err)
	}
	if after := sizesOf(t, svc); !reflect.DeepEqual(after, before) {
		t.Fatalf("failed append still applied:\n before %+v\n after  %+v", before, after)
	}
	if got := svc.AppliedLSN(); got != 1 {
		t.Fatalf("cursor = %d after a failed append, want 1 (the record was not processed)", got)
	}
	j.failAppend = nil
	if err := svc.Apply(Mutation{Kind: KindTag, LSN: 2, User: "carol", Item: "marios", Tag: "pizza"}); err != nil {
		t.Fatalf("retry after the disk recovered: %v", err)
	}
	if got := len(j.appended); got != 2 {
		t.Fatalf("journal holds %d records, want 2", got)
	}
}

// TestApplyFailureAfterAppendLatchesBroken: once a record is in the
// journal but memory could not follow, log and memory disagree and the
// service fails closed until it is reopened — writes, checkpoints and
// snapshot exports are refused; reads and already-processed stamped
// records still answer.
func TestApplyFailureAfterAppendLatchesBroken(t *testing.T) {
	svc, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	j := &recordingJournal{}
	svc.AttachJournal(j)
	if err := svc.Apply(Mutation{Kind: KindBefriend, LSN: 1, User: "alice", Friend: "bob", Weight: 0.9}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the invariant apply depends on: a name with no id in the
	// overlay's universe, so the next new user's id drifts.
	svc.mu.Lock()
	svc.names.Users.MustAdd("orphan")
	svc.mu.Unlock()
	if err := svc.Tag("carol", "marios", "pizza"); !errors.Is(err, ErrBroken) {
		t.Fatalf("apply failure after append: %v, want ErrBroken", err)
	}
	if err := svc.Tag("alice", "marios", "pizza"); !errors.Is(err, ErrBroken) {
		t.Fatalf("write on a broken service: %v, want ErrBroken", err)
	}
	if err := svc.Checkpoint(); !errors.Is(err, ErrBroken) {
		t.Fatalf("Checkpoint on a broken service: %v, want ErrBroken", err)
	}
	if _, _, _, _, err := svc.SnapshotWithCursor(); !errors.Is(err, ErrBroken) {
		t.Fatalf("SnapshotWithCursor on a broken service: %v, want ErrBroken", err)
	}
	if j.checkpoints != 0 {
		t.Fatalf("a broken service checkpointed %d times", j.checkpoints)
	}
	if err := svc.Apply(Mutation{Kind: KindBefriend, LSN: 1, User: "alice", Friend: "bob", Weight: 0.9}); err != nil {
		t.Fatalf("redelivered record on a broken service: %v, want the dedup no-op", err)
	}

	// The same failure on a volatile service is just an error: there is
	// no log for memory to disagree with.
	vol, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	vol.mu.Lock()
	vol.names.Users.MustAdd("orphan")
	vol.mu.Unlock()
	if err := vol.Tag("carol", "marios", "pizza"); err == nil || errors.Is(err, ErrBroken) {
		t.Fatalf("apply failure on a volatile service: %v, want a plain error", err)
	}
	if err := vol.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint on a volatile service: %v, want the no-op", err)
	}
}

// TestJournaledReadsSeeAcknowledgedWrites: a journaled service folds
// pending writes in before it answers, where a volatile one serves the
// last compacted snapshot; and it only folds when something is pending.
func TestJournaledReadsSeeAcknowledgedWrites(t *testing.T) {
	build := func(journaled bool) *Service {
		svc, err := NewService(DefaultServiceConfig()) // AutoCompactEvery 64: writes stay pending
		if err != nil {
			t.Fatal(err)
		}
		if journaled {
			svc.AttachJournal(&recordingJournal{})
		}
		if err := svc.Befriend("alice", "bob", 0.9); err != nil {
			t.Fatal(err)
		}
		if err := svc.Tag("bob", "luigis", "pizza"); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	if _, err := searchExact(build(false), "alice", []string{"pizza"}, 3); err == nil {
		t.Fatal("a volatile service answered from writes it has not compacted")
	}
	svc := build(true)
	res, err := searchExact(svc, "alice", []string{"pizza"}, 3)
	if err != nil || len(res) != 1 || res[0].Item != "luigis" {
		t.Fatalf("journaled read = %v, %v; want the acknowledged tagging", res, err)
	}
	compactions := svc.Stats().Compactions
	for i := 0; i < 3; i++ {
		if _, err := searchExact(svc, "alice", []string{"pizza"}, 3); err != nil {
			t.Fatal(err)
		}
	}
	if got := svc.Stats().Compactions; got != compactions {
		t.Fatalf("reads with nothing pending compacted %d more times", got-compactions)
	}
}

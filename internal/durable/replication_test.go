package durable

import (
	"errors"
	"testing"

	"repro/internal/social"
)

// TestDurableReplicationDedupDoesNotDoubleLog pins the durable wrapper's
// LSN discipline: a redelivered record is deduplicated BEFORE the
// append, so recovery replays each mutation exactly once; a gap is a
// clean protocol error (never marks the service broken); and the
// cursor is durable — stamped records carry their fleet LSN into the
// local log, so a reopened service resumes from the last logged
// stamped LSN instead of restreaming history.
func TestDurableReplicationDedupDoesNotDoubleLog(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Apply(social.Mutation{Kind: social.KindBefriend, LSN: 1, User: "alice", Friend: "bob", Weight: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Apply(social.Mutation{Kind: social.KindBefriend, LSN: 1, User: "alice", Friend: "bob", Weight: 0.9}); err != nil {
		t.Fatalf("redelivered record: %v", err)
	}
	if err := svc.Apply(social.Mutation{Kind: social.KindTag, LSN: 2, User: "bob", Item: "luigis", Tag: "pizza"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Apply(social.Mutation{Kind: social.KindTag, LSN: 2, User: "bob", Item: "luigis", Tag: "pizza"}); err != nil {
		t.Fatalf("redelivered record: %v", err)
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor = %d, want 2", got)
	}

	// A gap is refused cleanly: the service keeps working.
	if err := svc.Apply(social.Mutation{Kind: social.KindBefriend, LSN: 9, User: "x", Friend: "y", Weight: 0.5}); !errors.Is(err, social.ErrReplicationGap) {
		t.Fatalf("gap err = %v, want social.ErrReplicationGap", err)
	}
	if err := svc.Apply(social.Mutation{Kind: social.KindTag, LSN: 3, User: "bob", Item: "luigis", Tag: "italian"}); err != nil {
		t.Fatalf("after refused gap: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery: exactly the three accepted records, no duplicates, and
	// the cursor restored from the stamped records — catch-up resumes at
	// LSN 4 instead of restreaming history.
	re, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	st := re.Stats()
	if st.RecoveredRecords != 3 {
		t.Fatalf("recovered %d records, want 3 (dedup must not double-log)", st.RecoveredRecords)
	}
	if got := re.AppliedLSN(); got != 3 {
		t.Fatalf("reopened cursor = %d, want 3 (persisted via stamped records)", got)
	}
	if st.Users != 2 || st.Items != 1 {
		t.Fatalf("recovered stats = %+v, want 2 users, 1 item", st)
	}
}

// TestDurableDeterministicRejectionAdvancesCursor pins the lockstep
// rule on the durable wrapper: a record it deterministically rejects
// (here a self-edge) advances the cursor WITHOUT being logged — every
// replica skips the identical record identically — and the stream
// continues; recovery replays only the accepted records.
func TestDurableDeterministicRejectionAdvancesCursor(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Apply(social.Mutation{Kind: social.KindBefriend, LSN: 1, User: "alice", Friend: "bob", Weight: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Apply(social.Mutation{Kind: social.KindBefriend, LSN: 2, User: "alice", Friend: "alice", Weight: 0.5}); err == nil {
		t.Fatal("self-edge record accepted")
	}
	if got := svc.AppliedLSN(); got != 2 {
		t.Fatalf("cursor after rejected record = %d, want 2 (processed in lockstep)", got)
	}
	// The stream continues: record 3 is not a gap.
	if err := svc.Apply(social.Mutation{Kind: social.KindTag, LSN: 3, User: "bob", Item: "luigis", Tag: "pizza"}); err != nil {
		t.Fatalf("record after rejected one: %v", err)
	}
	// A name with a line break is a durable-side rejection too.
	if err := svc.Apply(social.Mutation{Kind: social.KindTag, LSN: 4, User: "bo\nb", Item: "x", Tag: "y"}); err == nil {
		t.Fatal("line-break name accepted")
	}
	if got := svc.AppliedLSN(); got != 4 {
		t.Fatalf("cursor = %d, want 4", got)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().RecoveredRecords; got != 2 {
		t.Fatalf("recovered %d records, want 2 (rejected records must not be logged)", got)
	}
	// The trailing unlogged skip (lsn 4) is lost on restart — the cursor
	// resumes at the last stamped record and the re-streamed rejection is
	// skipped identically again.
	if got := re.AppliedLSN(); got != 3 {
		t.Fatalf("reopened cursor = %d, want 3 (last stamped record)", got)
	}
	if err := re.Apply(social.Mutation{Kind: social.KindTag, LSN: 4, User: "bo\nb", Item: "x", Tag: "y"}); err == nil {
		t.Fatal("re-streamed line-break name accepted")
	}
	if got := re.AppliedLSN(); got != 4 {
		t.Fatalf("cursor after re-skip = %d, want 4", got)
	}
}

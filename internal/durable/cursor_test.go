package durable

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/social"
)

// TestDurableCursorSurvivesRestart exercises cursor persistence under
// the race detector: stamped records applied by a writer goroutine race
// with concurrent cursor/stats reads, then the service restarts and the
// cursor must resume exactly where the log left off — the replica asks
// the fleet log for the suffix after its cursor instead of restreaming
// history from LSN 1.
func TestDurableCursorSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	const n = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = svc.AppliedLSN()
			_ = svc.Stats()
		}
	}()
	for i := 1; i <= n; i++ {
		lsn := uint64(i)
		var err error
		if i%2 == 0 {
			err = svc.Apply(social.Mutation{Kind: social.KindTag, LSN: lsn, User: fmt.Sprintf("u%d", i%17), Item: fmt.Sprintf("item%d", i%5), Tag: "tag"})
		} else {
			err = svc.Apply(social.Mutation{Kind: social.KindBefriend, LSN: lsn, User: fmt.Sprintf("u%d", i%17), Friend: fmt.Sprintf("v%d", i%13), Weight: 0.5})
		}
		if err != nil {
			t.Fatalf("stamped apply lsn %d: %v", lsn, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := re.AppliedLSN(); got != n {
		t.Fatalf("reopened cursor = %d, want %d", got, n)
	}
	// Resuming means a redelivery of the suffix head is deduped, and the
	// true next record is accepted.
	if err := re.Apply(social.Mutation{Kind: social.KindTag, LSN: n, User: "u0", Item: "item0", Tag: "tag"}); err != nil {
		t.Fatalf("redelivered record after restart: %v", err)
	}
	if err := re.Apply(social.Mutation{Kind: social.KindBefriend, LSN: n + 1, User: "u1", Friend: "v2", Weight: 0.5}); err != nil {
		t.Fatalf("next record after restart: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCursorSurvivesCheckpointTruncation pins the manifest half
// of cursor durability: a checkpoint folds state into a snapshot and
// lets the log layer truncate the stamped records, so the cursor must
// ride in the manifest — a reopen after checkpoint (replaying zero or
// few records) still resumes from the latest stamped LSN.
func TestDurableCursorSurvivesCheckpointTruncation(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		if err := svc.Apply(social.Mutation{Kind: social.KindBefriend, LSN: uint64(i), User: fmt.Sprintf("a%d", i), Friend: fmt.Sprintf("b%d", i), Weight: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Stats().RecoveredRecords; got != 0 {
		t.Fatalf("recovered %d records after checkpoint, want 0 (snapshot covers them)", got)
	}
	if got := re.AppliedLSN(); got != 50 {
		t.Fatalf("reopened cursor = %d, want 50 (carried by the manifest)", got)
	}
	if err := re.Apply(social.Mutation{Kind: social.KindBefriend, LSN: 51, User: "x", Friend: "y", Weight: 0.5}); err != nil {
		t.Fatalf("next record after checkpointed restart: %v", err)
	}
}

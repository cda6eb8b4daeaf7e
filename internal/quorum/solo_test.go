package quorum

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/wal"
)

// TestOneMemberLeadsAtStart: a node without peers is not leading before
// Start and is when Start returns — no election, no wait — and it
// commits each record as it appends it, writing no term record and no
// state file, so its directory stays a single-front-end log.
func TestOneMemberLeadsAtStart(t *testing.T) {
	dir := t.TempDir()
	n, err := Open(Config{ID: "solo", Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.IsLeader() {
		t.Fatal("one-member node leads before Start")
	}
	n.Start()
	if !n.IsLeader() || n.Term() != 0 {
		t.Fatalf("after Start: leader %v term %d, want leader at term 0", n.IsLeader(), n.Term())
	}
	if id, _ := n.Leader(); id != "solo" {
		t.Fatalf("leader id %q, want solo", id)
	}
	for i := 1; i <= 5; i++ {
		lsn, err := n.Append(context.Background(), durable.RecTag, durable.EncodeTag("u", fmt.Sprint(i), "t"))
		if err != nil || lsn != uint64(i) {
			t.Fatalf("append %d: lsn %d, %v", i, lsn, err)
		}
		if c := n.CommitLSN(); c != lsn {
			t.Fatalf("commit %d after appending lsn %d", c, lsn)
		}
	}
	if _, err := n.ReadCommitted(1, func(rec wal.Record) error {
		if rec.Type != durable.RecTag {
			return fmt.Errorf("lsn %d has type %d", rec.LSN, rec.Type)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, stateFile)); !os.IsNotExist(err) {
		t.Fatalf("one-member node wrote a state file: %v", err)
	}
}

// TestOneMemberRefusesQuorumLog: a directory that served in a quorum
// (persisted term > 0) reopens only with its peers.
func TestOneMemberRefusesQuorumLog(t *testing.T) {
	c := newCluster(t, 3, nil)
	id := c.waitLeader()
	c.kill(id)
	if n, err := Open(Config{ID: id, Dir: c.dirs[id]}); err == nil {
		n.Close()
		t.Fatal("a quorum member's log opened as a one-member node")
	}
}

// TestOneMemberAppendAllocs pins what a one-member Append allocates:
// the commit is immediate, so it starts no commit waiter (goroutine,
// channel) and sorts no match slice on the heap.
func TestOneMemberAppendAllocs(t *testing.T) {
	n, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Start()
	payload := durable.EncodeTag("user", "item", "tag")
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := n.Append(ctx, durable.RecTag, payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("one-member Append allocates %.1f times, want 0", allocs)
	}
}

// TestLeaderTruncatesBelowSlowestFollower: with peers, the leader's
// sweep reclaims sealed segments only through its slowest follower's
// match index, and a leader restarted over its truncated log rebuilds
// the term index of what is left from the persisted base.
func TestLeaderTruncatesBelowSlowestFollower(t *testing.T) {
	defer func(b int64) { segmentBytes = b }(segmentBytes)
	segmentBytes = 256 // a dozen records a segment
	const seeded = 900
	c := newCluster(t, 3, func(dir string) {
		l, err := wal.Open(dir, wal.Options{SegmentBytes: segmentBytes})
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= seeded; i++ {
			if _, err := l.Append(1, []byte(fmt.Sprintf("seed-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
	})
	leaderID := c.waitLeader()
	leader := c.node(leaderID)
	leader.PinLog(func() uint64 { return ^uint64(0) })
	appendN(t, leader, "acked", 40)

	// The slowest follower acknowledges everything so far, then dies.
	var slow string
	for _, id := range c.ids {
		if id != leaderID {
			slow = id
		}
	}
	var match uint64
	waitMatch := time.Now().Add(3 * time.Second)
	for match < leader.Head() {
		for _, p := range leader.Stats().Peers {
			if p.ID == slow {
				match = p.Match
			}
		}
		if time.Now().After(waitMatch) {
			t.Fatalf("follower %s stuck at match %d < head %d", slow, match, leader.Head())
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.kill(slow)
	termRec := leader.log.spans[len(leader.log.spans)-1].start
	for leader.Head() < truncateEvery {
		appendN(t, leader, "more", 1)
	}

	first := leader.log.wal.Start(0)
	if first <= 1 || first > match+1 {
		t.Fatalf("log starts at lsn %d, want a reclaimed prefix and every record past the slow follower's match %d kept", first, match)
	}
	if first <= termRec {
		t.Fatalf("the sweep kept the term record (lsn %d, log starts at %d): the base is untested", termRec, first)
	}
	if got, want := leader.Barrier(), match+1; got != want {
		t.Fatalf("barrier %d, want %d", got, want)
	}
	if _, err := leader.ReadCommitted(match+1, func(wal.Record) error { return nil }); err != nil {
		t.Fatalf("reading past the slow follower's match: %v", err)
	}

	// Restarted, the leader labels the kept records as it did before.
	head, term := leader.Head(), leader.log.termOf(leader.Head())
	firstTerm := leader.log.termOf(first)
	c.kill(leaderID)
	restarted := c.start(leaderID)
	if got := restarted.log.termOf(head); got != term {
		t.Fatalf("reopened head lsn %d has term %d, want %d", head, got, term)
	}
	if got := restarted.log.termOf(first); got != firstTerm || got == 0 {
		t.Fatalf("reopened first lsn %d has term %d, want %d", first, got, firstTerm)
	}
	next := c.node(c.waitLeader())
	appendN(t, next, "after", 3)
}

package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/social"
	"repro/internal/wal"
)

// TestDeliverByRecordType drives the one record-delivery function over
// every record type the replication log can hold: each decodes to the
// apply page entry it names — a leadership record to a skip entry — and
// a type the codec does not know never reaches the replica.
func TestDeliverByRecordType(t *testing.T) {
	rep := newToggleReplica(t)
	c := newTestClient(t, rep.ts.URL, ClientConfig{})
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		rec  wal.Record
		want string // the page the replica must see; "": refused at decode
	}{
		{"befriend", wal.Record{LSN: 1, Type: durable.RecBefriend, Data: durable.EncodeBefriend("alice", "bob", 0.9)},
			`{"records":[{"kind":"befriend","lsn":1,"user":"alice","friend":"bob","weight":0.9}]}`},
		{"tag", wal.Record{LSN: 2, Type: durable.RecTag, Data: durable.EncodeTag("bob", "luigis", "pizza")},
			`{"records":[{"kind":"tag","lsn":2,"user":"bob","item":"luigis","tag":"pizza"}]}`},
		{"term", wal.Record{LSN: 3, Type: durable.RecTerm, Data: durable.EncodeTerm(7, "fe1")},
			`{"records":[{"lsn":3}]}`},
		{"unknown", wal.Record{LSN: 4, Type: 99}, ""},
	} {
		before := len(rep.appliesSeen())
		m, err := durable.DecodeMutation(tc.rec)
		if tc.want == "" {
			if err == nil {
				t.Errorf("%s: record type %d decoded to %+v, want an error", tc.name, tc.rec.Type, m)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m.LSN = tc.rec.LSN
		ack, err := deliver(ctx, c, []social.Mutation{m}, false)
		if err != nil || ack != tc.rec.LSN {
			t.Fatalf("%s: deliver = cursor %d, %v; want cursor %d", tc.name, ack, err, tc.rec.LSN)
		}
		if got := rep.appliesSeen()[before:]; !slices.Equal(got, []string{tc.want}) {
			t.Errorf("%s: replica saw %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := rep.svc.AppliedLSN(); got != 3 {
		t.Fatalf("replica cursor = %d after befriend, tag, skip; want 3", got)
	}
	if n := len(rep.appliesSeen()); n != 3 {
		t.Fatalf("replica saw %d apply pages, want 3 (the unknown record never left)", n)
	}
	// A page that asks for the fold says so on the wire, and the replica
	// folds what it applied before it answers.
	if ack, err := deliver(ctx, c, []social.Mutation{{LSN: 4}}, true); err != nil || ack != 4 {
		t.Fatalf("fold page: deliver = cursor %d, %v; want cursor 4", ack, err)
	}
	if got, want := rep.appliesSeen()[3], `{"records":[{"lsn":4}],"fold":true}`; got != want {
		t.Errorf("fold page: replica saw %q, want %q", got, want)
	}
	if st := rep.svc.Stats(); st.PendingWrites != 0 {
		t.Fatalf("replica stats = %+v after a fold page, want nothing pending", st)
	}
}

// TestCatchUpSendsWhatHeartbeatSent is the differential behind "one
// record delivery": for the records a replica missed, catch-up sends it
// byte-identical apply pages to the ones the heartbeat sent the replica
// that was up — the held records and the log's are the same records.
func TestCatchUpSendsWhatHeartbeatSent(t *testing.T) {
	front, pool, reps, _ := newCatchupFleet(t, 2, t.TempDir())
	const victim, survivor = 0, 1
	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	reps[victim].down.Store(true)
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(victim) })
	missedFrom := len(reps[survivor].appliesSeen())
	// Hold the heartbeat back so the three writes ride one of it.
	front.bcast.flushMu.Lock()
	for _, err := range []error{
		front.Tag("bob", "luigis", "pizza"),
		front.Befriend("carol", "dave", 0.375),
		front.Tag("carol", "marios", "pasta"),
	} {
		if err != nil {
			front.bcast.flushMu.Unlock()
			t.Fatal(err)
		}
	}
	front.bcast.flushMu.Unlock()
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	caughtUpFrom := len(reps[victim].appliesSeen())
	reps[victim].down.Store(false)
	waitFor(t, 5*time.Second, func() bool { return pool.Live(victim) })

	heartbeat := reps[survivor].appliesSeen()[missedFrom:]
	catchUp := reps[victim].appliesSeen()[caughtUpFrom:]
	if len(heartbeat) != 1 || len(recordsIn(t, heartbeat)) != 3 {
		t.Fatalf("the heartbeat sent the survivor %q, want one page of the three missed records", heartbeat)
	}
	if !slices.Equal(catchUp, heartbeat) {
		t.Fatalf("catch-up sent %q\nthe heartbeat sent %q", catchUp, heartbeat)
	}
}

// TestCatchUpPagesMissedRecords: a replica 3,000 records behind the
// log is streamed up in ⌈3000/1024⌉ = 3 apply requests, not 3,000, and
// holds every record, in order. Only the last page asks for the fold,
// so the stream costs the replica one compaction.
func TestCatchUpPagesMissedRecords(t *testing.T) {
	const missed = 3000
	dir := t.TempDir()
	// The history of an earlier front-end run, written straight into the
	// log: the fresh replica has none of it.
	lg, err := wal.Open(dir, wal.Options{Sync: wal.SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < missed; i++ {
		if _, err := lg.Append(durable.RecTag, durable.EncodeTag(fmt.Sprintf("u%d", i%50), fmt.Sprintf("i%d", i), "pizza")); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	front, pool, reps, _ := newCatchupFleet(t, 1, dir)
	// The tracked cursor moves at the last page's answer: after its fold.
	waitFor(t, 20*time.Second, func() bool { return pool.Live(0) && pool.state(0).applied() == missed })
	pages := reps[0].appliesSeen()
	if len(pages) != 3 {
		t.Fatalf("catch-up of %d records took %d apply requests, want 3", missed, len(pages))
	}
	for i, body := range pages {
		var page server.ApplyRequest
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatal(err)
		}
		if last := i == len(pages)-1; page.Fold != last {
			t.Fatalf("page %d of %d: fold = %v, want %v (only the last page folds)", i+1, len(pages), page.Fold, last)
		}
	}
	if st := reps[0].svc.Stats(); st.PendingWrites != 0 {
		t.Fatalf("replica stats = %+v after the stream, want nothing pending", st)
	}
	recs := recordsIn(t, pages)
	if len(recs) != missed {
		t.Fatalf("catch-up delivered %d records, want %d", len(recs), missed)
	}
	for i, m := range recs {
		if want := fmt.Sprintf("i%d", i); m.LSN != uint64(i+1) || m.Item != want {
			t.Fatalf("record %d = %+v, want lsn %d item %s", i, m, i+1, want)
		}
	}
	// The fleet was live throughout: the heartbeat UseRepLog owes it
	// carried the stream, and no rejoin gate ran.
	if vs := front.StatsAny().(Stats).Replicas[0]; vs.AppliedLSN != missed || vs.Counters.Catchups != 0 {
		t.Fatalf("replica stats = %+v, want cursor %d reached without a rejoin", vs, missed)
	}
}

// TestFrontendWithoutLogRefusesWrites: until UseRepLog or UseQuorum has
// run there is no write path — mutations answer the unavailable class
// (503 on the wire) and reach no replica — while reads are served.
func TestFrontendWithoutLogRefusesWrites(t *testing.T) {
	front, _, reps, _ := newCatchupFleet(t, 1, "")
	if err := front.Befriend("alice", "bob", 0.9); !errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("befriend without a log: %v, want ErrUnavailable", err)
	}
	if err := front.Tag("bob", "luigis", "pizza"); !errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("tag without a log: %v, want ErrUnavailable", err)
	}
	if got := reps[0].appliesSeen(); len(got) != 0 {
		t.Fatalf("refused writes reached the replica: %q", got)
	}
	svc := reps[0].svc
	if err := svc.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := svc.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	resp, err := front.Do(context.Background(), search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact})
	if err != nil || len(resp.Results) != 1 || resp.Results[0].Item != "luigis" {
		t.Fatalf("read without a log = %+v, %v; want luigis", resp.Results, err)
	}
	if st := front.StatsAny().(Stats); st.Replog != nil {
		t.Fatalf("stats report a replog on a bare front-end: %+v", st.Replog)
	}
}

package fleet

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/search"
	"repro/internal/wal"
)

// TestDeliverByRecordType drives the one record-delivery function over
// every record type the replication log can hold: each decodes to the
// replication apply it names — a leadership record to a cursor skip —
// and a type the codec does not know never reaches the replica.
func TestDeliverByRecordType(t *testing.T) {
	rep := newToggleReplica(t)
	c := newTestClient(t, rep.ts.URL, ClientConfig{})
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		rec  wal.Record
		want string // the request the replica must see; "": refused at decode
	}{
		{"befriend", wal.Record{LSN: 1, Type: durable.RecBefriend, Data: durable.EncodeBefriend("alice", "bob", 0.9)},
			`/v1/friend {"a":"alice","b":"bob","weight":0.9,"lsn":1}`},
		{"tag", wal.Record{LSN: 2, Type: durable.RecTag, Data: durable.EncodeTag("bob", "luigis", "pizza")},
			`/v1/tag {"user":"bob","item":"luigis","tag":"pizza","lsn":2}`},
		{"term", wal.Record{LSN: 3, Type: durable.RecTerm, Data: durable.EncodeTerm(7, "fe1")},
			`/v1/skip {"lsn":3}`},
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
		ack, err := deliver(ctx, c, m)
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
}

// TestCatchUpSendsWhatFanOutSent is the differential behind "one record
// delivery": for the records a replica missed, the requests catch-up
// sends it are byte-identical (path and body) to the ones the
// foreground fan-out sent the replica that was up.
func TestCatchUpSendsWhatFanOutSent(t *testing.T) {
	front, pool, reps, _ := newCatchupFleet(t, 2, t.TempDir())
	const victim, survivor = 0, 1
	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	reps[victim].down.Store(true)
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(victim) })
	missedFrom := len(reps[survivor].appliesSeen())
	if err := front.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	if err := front.Befriend("carol", "dave", 0.375); err != nil {
		t.Fatal(err)
	}
	caughtUpFrom := len(reps[victim].appliesSeen())
	reps[victim].down.Store(false)
	waitFor(t, 5*time.Second, func() bool { return pool.Live(victim) })

	fanOut := reps[survivor].appliesSeen()[missedFrom:]
	catchUp := reps[victim].appliesSeen()[caughtUpFrom:]
	if len(fanOut) != 2 {
		t.Fatalf("fan-out sent the survivor %q, want the two missed records", fanOut)
	}
	if !slices.Equal(catchUp, fanOut) {
		t.Fatalf("catch-up sent %q\nfan-out sent %q", catchUp, fanOut)
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

package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/quorum"
	"repro/internal/social"
	"repro/internal/wal"
)

// TestRepLogWritesSingleFrontEndBytes: a one-member log writes exactly
// the single-front-end replication log format — one segment file whose
// bytes are the wal header and one frame per record, built here by hand
// — and nothing else (no term record, no state file). Reopened, it
// keeps the head and issues the next LSN.
func TestRepLogWritesSingleFrontEndBytes(t *testing.T) {
	dir := t.TempDir()
	rl, err := OpenRepLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	hdr := append([]byte("FWAL\x01"), binary.LittleEndian.AppendUint64(nil, 1)...)
	want.Write(binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr)))
	for i := 1; i <= 3; i++ {
		payload := durable.EncodeTag("bob", fmt.Sprintf("item%d", i), "pizza")
		if lsn, err := rl.AppendTag("bob", fmt.Sprintf("item%d", i), "pizza"); err != nil || lsn != uint64(i) {
			t.Fatalf("append %d: lsn %d, %v", i, lsn, err)
		}
		body := append([]byte{byte(durable.RecTag)}, payload...)
		want.Write(binary.AppendUvarint(nil, uint64(len(payload))))
		want.Write(body)
		want.Write(binary.LittleEndian.AppendUint32(nil, crc32.ChecksumIEEE(body)))
	}
	if err := rl.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "wal-0000000000000001.seg" {
		t.Fatalf("log directory holds %v, want one segment", entries)
	}
	got, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("segment bytes\n got %x\nwant %x", got, want.Bytes())
	}

	rl, err = OpenRepLog(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	if lsn, err := rl.AppendTag("carol", "x", "sushi"); err != nil || lsn != 4 {
		t.Fatalf("append after reopen: lsn %d, %v; want 4", lsn, err)
	}
	n := 0
	if head, err := rl.ReadFrom(1, func(wal.Record) error { n++; return nil }); err != nil || head != 4 || n != 4 {
		t.Fatalf("ReadFrom(1) = head %d, %d records, %v; want 4 and 4", head, n, err)
	}
}

// seedLog writes n Tag records into dir in small segments, as an
// earlier front-end run leaves its log, and returns them as mutations.
func seedLog(t *testing.T, dir string, n int) []social.Mutation {
	t.Helper()
	l, err := wal.Open(dir, wal.Options{SegmentBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var ms []social.Mutation
	for i := 1; i <= n; i++ {
		m := social.Mutation{Kind: social.KindTag, User: fmt.Sprintf("u%d", i%17), Item: fmt.Sprintf("i%d", i), Tag: "t"}
		rec, payload, err := durable.EncodeMutation(m)
		if err != nil {
			t.Fatal(err)
		}
		if m.LSN, err = l.Append(rec, payload); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// logStart is the LSN the oldest segment file in dir starts at.
func logStart(t *testing.T, dir string) uint64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	lsn, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(filepath.Base(segs[0]), "wal-"), ".seg"), 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestLogTruncationBarrier: the front-end's log reclaims the sealed
// segments every replica has applied, and keeps everything past the
// cursor of a replica that lags — which then catches up from what was
// kept.
func TestLogTruncationBarrier(t *testing.T) {
	const seeded, lagging = 1023, 500
	dir := t.TempDir()
	ms := seedLog(t, dir, seeded)
	front, pool, reps, clients := newCatchupFleet(t, 2, "")

	// Replica 1 holds the first 500 records, is seen there, and goes
	// down.
	if _, err := deliver(context.Background(), clients[1], ms[:lagging], true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return pool.state(1).applied() == lagging })
	reps[1].down.Store(true)
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(1) })

	node := useLog(t, front, dir)
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reps[0].svc.AppliedLSN(); got != seeded {
		t.Fatalf("replica 0 at lsn %d, want %d", got, seeded)
	}
	before := node.Stats().Segments
	// The write at LSN 1024 runs the sweep.
	if err := front.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	rs := front.StatsAny().(Stats).Replog
	if rs.Barrier != lagging+1 {
		t.Fatalf("barrier %d, want the lagging cursor + 1 = %d", rs.Barrier, lagging+1)
	}
	if start := logStart(t, dir); start <= 1 || start > lagging+1 {
		t.Fatalf("log starts at lsn %d after the sweep, want a reclaimed prefix and lsn %d kept", start, lagging+1)
	}
	if rs.Segments >= before {
		t.Fatalf("%d segments after the sweep, %d before", rs.Segments, before)
	}

	// GET /v2/replog over the truncated log: a from below the retained
	// start gets the page from the first record kept, with From saying
	// so; one inside the retained log starts where asked; one past the
	// head is empty.
	start := logStart(t, dir)
	for _, c := range []struct{ from, want uint64 }{{1, start}, {start + 7, start + 7}, {seeded + 5, seeded + 5}} {
		page, err := front.ReplogPage(c.from, 16)
		if err != nil {
			t.Fatalf("ReplogPage(%d): %v", c.from, err)
		}
		if page.From != c.want || page.Head != seeded+1 {
			t.Fatalf("ReplogPage(%d) = from %d, head %d; want from %d, head %d", c.from, page.From, page.Head, c.want, seeded+1)
		}
		if c.want > seeded+1 {
			if len(page.Records) != 0 {
				t.Fatalf("ReplogPage(%d) past the head holds %d records", c.from, len(page.Records))
			}
			continue
		}
		for k, rec := range page.Records {
			if rec.LSN != c.want+uint64(k) {
				t.Fatalf("ReplogPage(%d): record %d has lsn %d, want %d", c.from, k, rec.LSN, c.want+uint64(k))
			}
		}
		if len(page.Records) != 16 {
			t.Fatalf("ReplogPage(%d) holds %d records, want 16", c.from, len(page.Records))
		}
	}

	reps[1].down.Store(false)
	waitFor(t, 10*time.Second, func() bool { return reps[1].svc.AppliedLSN() == seeded+1 })
}

// TestResizeWithPeersRefused: a front-end whose log has
// peers keeps its pool as configured — membership is not replicated.
func TestResizeWithPeersRefused(t *testing.T) {
	front, _, _, _ := newCatchupFleet(t, 1, "")
	n, err := quorum.Open(quorum.Config{ID: "fe1", Peers: map[string]string{"fe1": "http://127.0.0.1:1", "fe2": "http://127.0.0.1:2"}, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.UseQuorum(n); err != nil {
		t.Fatal(err)
	}
	if _, err := front.JoinReplica(context.Background(), "http://127.0.0.1:3"); err != ErrNoElasticLog {
		t.Fatalf("join with peers: %v, want ErrNoElasticLog", err)
	}
	if err := front.RetireReplica(context.Background(), 0); err != ErrNoElasticLog {
		t.Fatalf("retire with peers: %v, want ErrNoElasticLog", err)
	}
}

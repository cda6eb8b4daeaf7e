package wal

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func collect(t *testing.T, dir string) []Record {
	t.Helper()
	var recs []Record
	_, err := Replay(dir, func(r Record) error {
		recs = append(recs, Record{LSN: r.LSN, Type: r.Type, Data: append([]byte(nil), r.Data...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		typ  Type
		data string
	}{
		{1, "hello"},
		{2, ""},
		{3, "a longer payload with some structure: 42"},
		{1, "bye"},
	}
	for i, w := range want {
		lsn, err := l.Append(w.typ, []byte(w.data))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d: lsn = %d, want %d", i, lsn, i+1)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	recs := collect(t, dir)
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Type != want[i].typ || string(r.Data) != want[i].data {
			t.Errorf("record %d = {%d %d %q}, want {%d %d %q}",
				i, r.LSN, r.Type, r.Data, i+1, want[i].typ, want[i].data)
		}
	}
}

func TestReplayEmptyAndMissingDir(t *testing.T) {
	next, err := Replay(filepath.Join(t.TempDir(), "nonexistent"), func(Record) error { return nil })
	if err != nil || next != 1 {
		t.Fatalf("missing dir: next=%d err=%v, want 1 nil", next, err)
	}

	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	next, err = Replay(dir, func(Record) error { return nil })
	if err != nil || next != 1 {
		t.Fatalf("empty log: next=%d err=%v, want 1 nil", next, err)
	}
}

func TestReopenContinuesLSNs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l2.Append(2, []byte("resumed"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 6 {
		t.Fatalf("resumed lsn = %d, want 6", lsn)
	}
	l2.Close()

	recs := collect(t, dir)
	if len(recs) != 6 || recs[5].Type != 2 || string(recs[5].Data) != "resumed" {
		t.Fatalf("unexpected tail after reopen: %+v", recs)
	}
}

func TestRotationCreatesSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'x'}, 40)
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.Segments(); got < 3 {
		t.Fatalf("segments = %d, want >= 3 with 128-byte rotation", got)
	}
	l.Close()

	recs := collect(t, dir)
	if len(recs) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) {
			t.Fatalf("record %d has lsn %d; segment boundary broke numbering", i, r.LSN)
		}
	}
}

func TestTruncateThroughDropsOnlyCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'y'}, 40)
	for i := 0; i < 12; i++ {
		if _, err := l.Append(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := l.Segments()
	if segsBefore < 4 {
		t.Fatalf("need >=4 segments for the test, got %d", segsBefore)
	}

	// Nothing is covered by LSN 0: no segment may vanish.
	if err := l.TruncateThrough(0); err != nil {
		t.Fatal(err)
	}
	if l.Segments() != segsBefore {
		t.Fatalf("TruncateThrough(0) dropped segments: %d -> %d", segsBefore, l.Segments())
	}

	if err := l.TruncateThrough(6); err != nil {
		t.Fatal(err)
	}
	if l.Segments() >= segsBefore {
		t.Fatalf("TruncateThrough(6) dropped nothing (still %d segments)", l.Segments())
	}
	l.Close()

	recs := collect(t, dir)
	if len(recs) == 0 {
		t.Fatal("all records gone after partial truncation")
	}
	if first := recs[0].LSN; first > 7 {
		t.Fatalf("truncation removed records beyond lsn 6: first surviving lsn %d", first)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].LSN != recs[i-1].LSN+1 {
			t.Fatalf("gap in surviving lsns at %d", i)
		}
	}
	if last := recs[len(recs)-1].LSN; last != 12 {
		t.Fatalf("last lsn = %d, want 12", last)
	}
}

func TestRotateThenTruncateLeavesOnlyActive(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(1, []byte("m")); err != nil {
			t.Fatal(err)
		}
	}
	// Checkpoint pattern: cut at a boundary, then drop the prefix.
	if err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateThrough(10); err != nil {
		t.Fatal(err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("segments after checkpoint truncate = %d, want 1", got)
	}
	// A second checkpoint with nothing appended since: the active segment
	// is empty and already sits at the boundary, so there is nothing to
	// seal — and no second segment to create under the same name.
	if err := l.Rotate(); err != nil {
		t.Fatalf("Rotate on an empty active segment: %v", err)
	}
	if got := l.Segments(); got != 1 {
		t.Fatalf("segments after empty rotate = %d, want 1", got)
	}
	lsn, err := l.Append(2, []byte("post"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 11 {
		t.Fatalf("post-checkpoint lsn = %d, want 11", lsn)
	}
	l.Close()

	recs := collect(t, dir)
	if len(recs) != 1 || recs[0].LSN != 11 {
		t.Fatalf("replay after checkpoint = %+v, want single record lsn 11", recs)
	}
}

func TestSyncManualStillReplaysAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := l.Append(1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	if got := len(collect(t, dir)); got != 100 {
		t.Fatalf("replayed %d, want 100", got)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append(1, nil); err != ErrClosed {
		t.Fatalf("Append after Close: err = %v, want ErrClosed", err)
	}
	if err := l.Sync(); err != ErrClosed {
		t.Fatalf("Sync after Close: err = %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestOversizedPayloadRejected(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, make([]byte, maxPayload+1)); err == nil {
		t.Fatal("oversized append succeeded")
	}
}

func TestSegmentNameRoundTrip(t *testing.T) {
	for _, lsn := range []uint64{1, 42, 1 << 40, ^uint64(0)} {
		name := segmentName(lsn)
		got, ok := parseSegmentName(name)
		if !ok || got != lsn {
			t.Errorf("parse(segmentName(%d)) = %d,%v", lsn, got, ok)
		}
	}
	for _, bad := range []string{"wal-xyz.seg", "wal-.seg", "other.seg", "wal-0001.seg", "wal-0000000000000001.tmp"} {
		if _, ok := parseSegmentName(bad); ok {
			t.Errorf("parseSegmentName(%q) accepted", bad)
		}
	}
}

// TestQuickRoundTrip drives random payload batches through append,
// reopen, and replay: whatever was acknowledged must come back intact
// and in order (property-based).
func TestQuickRoundTrip(t *testing.T) {
	prop := func(batches [][]byte, segBytes uint16) bool {
		dir := t.TempDir()
		opts := Options{SegmentBytes: int64(segBytes%512) + 64, Sync: SyncManual}
		l, err := Open(dir, opts)
		if err != nil {
			return false
		}
		for i, b := range batches {
			if len(b) > 1024 {
				b = b[:1024]
				batches[i] = b
			}
			if _, err := l.Append(Type(i%7), b); err != nil {
				return false
			}
		}
		if err := l.Close(); err != nil {
			return false
		}
		recs := collect(t, dir)
		if len(recs) != len(batches) {
			return false
		}
		for i, r := range recs {
			if r.LSN != uint64(i+1) || r.Type != Type(i%7) || !bytes.Equal(r.Data, batches[i]) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendSyncManual(b *testing.B) {
	l, err := Open(b.TempDir(), Options{Sync: SyncManual})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{'p'}, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay(b *testing.B) {
	dir := b.TempDir()
	l, err := Open(dir, Options{Sync: SyncManual})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte{'r'}, 64)
	const n = 10000
	for i := 0; i < n; i++ {
		if _, err := l.Append(1, payload); err != nil {
			b.Fatal(err)
		}
	}
	l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		if _, err := Replay(dir, func(Record) error { count++; return nil }); err != nil {
			b.Fatal(err)
		}
		if count != n {
			b.Fatalf("replayed %d, want %d", count, n)
		}
	}
}

func ExampleLog() {
	dir, _ := os.MkdirTemp("", "wal-example")
	defer os.RemoveAll(dir)

	l, _ := Open(dir, Options{})
	l.Append(1, []byte("first"))
	l.Append(2, []byte("second"))
	l.Close()

	Replay(dir, func(r Record) error {
		fmt.Printf("lsn=%d type=%d data=%s\n", r.LSN, r.Type, r.Data)
		return nil
	})
	// Output:
	// lsn=1 type=1 data=first
	// lsn=2 type=2 data=second
}

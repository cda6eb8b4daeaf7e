package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestReadFromBasics appends records across several segments and checks
// ReadFrom delivers exactly the requested suffix, in order, with the
// head reported correctly.
func TestReadFromBasics(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 128, Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 40
	for i := 1; i <= n; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("want multiple segments, got %d", l.Segments())
	}
	for _, from := range []uint64{0, 1, 2, 17, 39, 40, 41, 100} {
		var got []uint64
		head, err := l.ReadFrom(from, func(r Record) error {
			if want := fmt.Sprintf("record-%d", r.LSN); string(r.Data) != want {
				t.Fatalf("lsn %d payload = %q, want %q", r.LSN, r.Data, want)
			}
			got = append(got, r.LSN)
			return nil
		})
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", from, err)
		}
		if head != n {
			t.Fatalf("ReadFrom(%d) head = %d, want %d", from, head, n)
		}
		start := from
		if start == 0 {
			start = 1
		}
		wantLen := 0
		if start <= n {
			wantLen = int(n - start + 1)
		}
		if len(got) != wantLen {
			t.Fatalf("ReadFrom(%d) delivered %d records, want %d", from, len(got), wantLen)
		}
		for j, lsn := range got {
			if lsn != start+uint64(j) {
				t.Fatalf("ReadFrom(%d) record %d has lsn %d, want %d", from, j, lsn, start+uint64(j))
			}
		}
	}
}

// TestReadFromConcurrentAppends races a tailing reader against a
// writer: every read must deliver a dense prefix-suffix with no torn
// frames and no missing records below the captured head.
func TestReadFromConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256, Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if _, err := l.Append(2, []byte(fmt.Sprintf("payload %d with some girth", i))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		var next uint64 = 1
		head, err := l.ReadFrom(1, func(r Record) error {
			if r.LSN != next {
				return fmt.Errorf("gap: got lsn %d, want %d", r.LSN, next)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("concurrent ReadFrom: %v", err)
		}
		if next-1 != head {
			t.Fatalf("delivered through %d, head %d", next-1, head)
		}
	}
	wg.Wait()
}

// TestReadFromTornTail truncates the log mid-record out-of-band (the
// disk-corruption scenario) and checks ReadFrom reports ErrCorrupt
// instead of silently handing over a torn prefix — the contract a
// replication catch-up's clean-error-and-retry path depends on.
func TestReadFromTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 8; i++ {
		if _, err := l.Append(1, []byte("0123456789abcdef0123456789abcdef")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Shear the active segment mid-record.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1].path
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-10); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	_, err = l.ReadFrom(1, func(Record) error { delivered++; return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadFrom over torn tail: err = %v, want ErrCorrupt", err)
	}
	if delivered >= 8 {
		t.Fatalf("torn record delivered anyway (%d records)", delivered)
	}
}

// TestReadFromFnError checks reader callback errors surface verbatim.
func TestReadFromFnError(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := l.ReadFrom(1, func(Record) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("fn error = %v, want boom", err)
	}
}

// TestTruncationBarrier checks SetBarrier pins the suffix a lagging
// reader still needs: TruncateThrough may remove sealed segments only
// below the barrier, and records at or above it stay readable.
func TestTruncationBarrier(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 96, Sync: SyncManual})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 60
	for i := 1; i <= n; i++ {
		if _, err := l.Append(1, []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if l.Segments() < 3 {
		t.Fatalf("want >=3 segments, got %d", l.Segments())
	}

	l.SetBarrier(20)
	if err := l.TruncateThrough(n); err != nil {
		t.Fatal(err)
	}
	// Everything from the barrier on must still be readable.
	var got []uint64
	if _, err := l.ReadFrom(20, func(r Record) error { got = append(got, r.LSN); return nil }); err != nil {
		t.Fatalf("ReadFrom(barrier) after truncation: %v", err)
	}
	if len(got) != n-19 || got[0] != 20 || got[len(got)-1] != n {
		t.Fatalf("post-truncation suffix = %d records [%d..%d], want [20..%d]",
			len(got), got[0], got[len(got)-1], n)
	}
	// The prefix really was reclaimed (some segment files removed).
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if segs[0].firstLSN == 1 {
		t.Fatal("TruncateThrough under a high barrier reclaimed nothing")
	}
	if segs[0].firstLSN > 20 {
		t.Fatalf("truncation crossed the barrier: first retained lsn %d > 20", segs[0].firstLSN)
	}

	// Raising the barrier and truncating again reclaims more, never past it.
	l.SetBarrier(50)
	if err := l.TruncateThrough(n); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadFrom(50, func(Record) error { return nil }); err != nil {
		t.Fatalf("ReadFrom(50) after second truncation: %v", err)
	}
	// A reclaimed prefix is truncation, which a reader tells from
	// damage by its own sentinel.
	if _, err := l.ReadFrom(1, func(Record) error { return nil }); !errors.Is(err, ErrTruncated) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadFrom(1) on truncated prefix err = %v, want ErrTruncated", err)
	}
}

// TestReadFromClosed pins the closed-log behaviour.
func TestReadFromClosed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReadFrom(1, func(Record) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadFrom on closed log err = %v, want ErrClosed", err)
	}
}

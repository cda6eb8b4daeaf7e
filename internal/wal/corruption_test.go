package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// writeLog creates a log with n single-byte records and returns the
// directory and segment paths sorted by first LSN.
func writeLog(t *testing.T, n int, segBytes int64) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := l.Append(Type(1+i%3), []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, e := range entries {
		paths = append(paths, filepath.Join(dir, e.Name()))
	}
	sort.Strings(paths)
	return dir, paths
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir, paths := writeLog(t, 10, 1<<20)
	last := paths[len(paths)-1]

	// Chop three bytes off the final frame: a torn write.
	if err := os.Truncate(last, fileSize(t, last)-3); err != nil {
		t.Fatal(err)
	}

	// Replay tolerates it and yields 9 records.
	recs := collect(t, dir)
	if len(recs) != 9 {
		t.Fatalf("replayed %d records after torn tail, want 9", len(recs))
	}

	// Open truncates the tail and appends continue from LSN 10.
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(7, []byte("replacement"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 10 {
		t.Fatalf("append after torn-tail recovery: lsn = %d, want 10", lsn)
	}
	l.Close()

	recs = collect(t, dir)
	if len(recs) != 10 || recs[9].Type != 7 || string(recs[9].Data) != "replacement" {
		t.Fatalf("post-recovery replay wrong: %+v", recs)
	}
}

func TestBitFlipInTailFrameDropsOnlyThatFrame(t *testing.T) {
	dir, paths := writeLog(t, 5, 1<<20)
	last := paths[len(paths)-1]

	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit inside the last frame's payload region (well after the
	// preceding frames; the final frame is 2+1+2+4 = 9 bytes).
	raw[len(raw)-6] ^= 0x40
	if err := os.WriteFile(last, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	recs := collect(t, dir)
	if len(recs) != 4 {
		t.Fatalf("replayed %d records after tail bit flip, want 4", len(recs))
	}

	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lsn, _ := l.Append(1, []byte("x")); lsn != 5 {
		t.Fatalf("lsn after dropping damaged frame = %d, want 5", lsn)
	}
	l.Close()
}

// TestDamagedLengthIsCaughtBeforeAllocation: a torn tail whose length
// varint claims more bytes than the segment holds (here 60 MiB, under
// the 64 MiB record limit) is a torn frame, found without allocating
// the claimed size — by Replay and by Open, which truncates it.
func TestDamagedLengthIsCaughtBeforeAllocation(t *testing.T) {
	dir, paths := writeLog(t, 3, 1<<20)
	last := paths[len(paths)-1]
	raw, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	intact := int64(len(raw))
	raw = binary.AppendUvarint(raw, 60<<20)
	raw = append(raw, 1, 2, 3, 4, 5, 6, 7, 8)
	if err := os.WriteFile(last, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	if recs := collect(t, dir); len(recs) != 3 {
		t.Fatalf("replayed %d records, want the 3 before the damaged frame", len(recs))
	}
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got > 8<<20 {
		t.Fatalf("replay and open allocated %d bytes for a frame the segment cannot hold", got)
	}
	if got := fileSize(t, last); got != intact {
		t.Fatalf("Open left the segment at %d bytes, want the intact %d", got, intact)
	}
}

func TestCorruptionInNonLastSegmentIsFatal(t *testing.T) {
	dir, paths := writeLog(t, 40, 128)
	if len(paths) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(paths))
	}
	victim := paths[0]
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[headerSize+3] ^= 0xff // inside the first frame
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Replay(dir, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay with mid-log damage: err = %v, want ErrCorrupt", err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-log damage: err = %v, want ErrCorrupt", err)
	}
}

func TestHeaderDamageIsFatal(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func([]byte)
	}{
		{"magic", func(b []byte) { b[0] = 'X' }},
		{"version", func(b []byte) { b[4] = 99 }},
		{"lsn", func(b []byte) { b[5] ^= 1 }},
		{"crc", func(b []byte) { b[13] ^= 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, paths := writeLog(t, 3, 1<<20)
			raw, err := os.ReadFile(paths[0])
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(raw)
			if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Replay(dir, func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Replay of a damaged header: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestOtherVersionIsNotCorruption: an intact header (its checksum
// matches) that names another format version is reported as such, not
// as corruption — while a damaged version byte, whose checksum fails,
// is corruption (TestHeaderDamageIsFatal).
func TestOtherVersionIsNotCorruption(t *testing.T) {
	dir, paths := writeLog(t, 3, 1<<20)
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[4] = version + 1
	binary.LittleEndian.PutUint32(raw[13:], crc32.ChecksumIEEE(raw[:13]))
	if err := os.WriteFile(paths[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Replay(dir, func(Record) error { return nil })
	if err == nil || errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("Replay of another version: err = %v, want unsupported version", err)
	}
}

func TestHeaderOnlySegmentReplaysEmpty(t *testing.T) {
	dir, paths := writeLog(t, 0, 1<<20)
	if len(paths) != 1 {
		t.Fatalf("expected the initial empty segment, got %v", paths)
	}
	if got := len(collect(t, dir)); got != 0 {
		t.Fatalf("records in empty segment: %d", got)
	}
	// Truncated header (file shorter than headerSize) is fatal.
	if err := os.Truncate(paths[0], headerSize-2); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, func(Record) error { return nil }); err == nil {
		t.Fatal("Replay accepted a truncated header")
	}
}

func TestForeignFilesIgnored(t *testing.T) {
	dir, _ := writeLog(t, 4, 1<<20)
	for _, name := range []string{"notes.txt", "wal-0001.seg", "wal-zzzzzzzzzzzzzzzz.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(collect(t, dir)); got != 4 {
		t.Fatalf("replayed %d with foreign files present, want 4", got)
	}
}

// TestProgressiveTruncation chops the log byte by byte from the end:
// replay must never error (single segment) and the record count must be
// non-increasing — no resurrection, no crash, regardless of where the
// cut lands.
func TestProgressiveTruncation(t *testing.T) {
	dir, paths := writeLog(t, 8, 1<<20)
	if len(paths) != 1 {
		t.Fatalf("want single segment, got %d", len(paths))
	}
	seg := paths[0]
	orig, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	prev := 9 // sentinel above the real maximum of 8
	for cut := len(orig); cut >= headerSize; cut-- {
		if err := os.WriteFile(seg, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		count := 0
		if _, err := Replay(dir, func(Record) error { count++; return nil }); err != nil {
			t.Fatalf("cut at %d bytes: %v", cut, err)
		}
		if count > prev {
			t.Fatalf("cut at %d bytes resurrected records: %d after %d", cut, count, prev)
		}
		prev = count
	}
	if prev != 0 {
		t.Fatalf("header-only file still yields %d records", prev)
	}
}

func TestReplayCallbackErrorAborts(t *testing.T) {
	dir, _ := writeLog(t, 5, 1<<20)
	boom := errors.New("boom")
	n := 0
	_, err := Replay(dir, func(Record) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 3 {
		t.Fatalf("callback ran %d times, want 3", n)
	}
}

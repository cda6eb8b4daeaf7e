package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// fuzzRecords is the seeded log FuzzWALReplay damages: payloads of 0
// to 300 bytes (so length varints of one and two bytes), every record
// type, over 512-byte segments.
func fuzzRecords() []Record {
	recs := make([]Record, 40)
	for i := range recs {
		data := make([]byte, (i*37)%301)
		for j := range data {
			data[j] = byte(i*7 + j)
		}
		recs[i] = Record{LSN: uint64(i + 1), Type: Type(1 + i%5), Data: data}
	}
	return recs
}

// writeFuzzLog writes recs to a fresh log under dir and returns the
// segment files' names and bytes in LSN order.
func writeFuzzLog(tb testing.TB, dir string, recs []Record) (names []string, segs [][]byte) {
	tb.Helper()
	l, err := Open(dir, Options{SegmentBytes: 512})
	if err != nil {
		tb.Fatal(err)
	}
	for _, r := range recs {
		if _, err := l.Append(r.Type, r.Data); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		tb.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			tb.Fatal(err)
		}
		segs = append(segs, b)
	}
	return names, segs
}

// FuzzWALReplay cuts the seeded log's last segment at a fuzzed length
// and flips fuzzed bytes in what is left (three input bytes a flip: a
// little-endian offset into the cut segment and the XOR mask). Whatever
// the damage, Replay must not panic, and must either deliver a prefix
// of the written records, byte-equal and at their LSNs — at least every
// record of the untouched segments — or fail with ErrCorrupt. It must
// never deliver a record that was not written.
func FuzzWALReplay(f *testing.F) {
	recs := fuzzRecords()
	names, segs := writeFuzzLog(f, f.TempDir(), recs)
	last := segs[len(segs)-1]
	first, ok := parseSegmentName(names[len(names)-1])
	if !ok || first < 2 {
		f.Fatalf("seeded log's last segment %s does not follow another", names[len(names)-1])
	}
	before := first - 1 // records in the segments before the last

	f.Add(uint16(len(last)), []byte{})                    // intact
	f.Add(uint16(len(last)-3), []byte{})                  // torn final frame
	f.Add(uint16(headerSize), []byte{})                   // header only
	f.Add(uint16(headerSize-1), []byte{})                 // short header
	f.Add(uint16(len(last)), []byte{4, 0, 0xff})          // version byte
	f.Add(uint16(len(last)), []byte{0, 0, 1})             // magic
	f.Add(uint16(len(last)), []byte{6, 0, 1})             // header lsn
	f.Add(uint16(len(last)), []byte{headerSize, 0, 0x80}) // first length varint
	f.Add(uint16(len(last)), []byte{headerSize + 3, 0, 1, 40, 0, 0x10})
	f.Fuzz(func(t *testing.T, cut uint16, flips []byte) {
		seg := append([]byte(nil), last[:int(cut)%(len(last)+1)]...)
		for i := 0; i+3 <= len(flips) && len(seg) > 0; i += 3 {
			seg[int(binary.LittleEndian.Uint16(flips[i:]))%len(seg)] ^= flips[i+2]
		}
		dir := t.TempDir()
		for i, n := range names {
			b := segs[i]
			if i == len(names)-1 {
				b = seg
			}
			if err := os.WriteFile(filepath.Join(dir, n), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		var got []Record
		next, err := Replay(dir, func(r Record) error {
			got = append(got, Record{LSN: r.LSN, Type: r.Type, Data: append([]byte(nil), r.Data...)})
			return nil
		})
		if len(got) > len(recs) {
			t.Fatalf("replay delivered %d records, %d were written", len(got), len(recs))
		}
		for i, r := range got {
			w := recs[i]
			if r.LSN != w.LSN || r.Type != w.Type || !bytes.Equal(r.Data, w.Data) {
				t.Fatalf("record %d delivered as lsn %d type %d %d bytes, written as lsn %d type %d %d bytes",
					i, r.LSN, r.Type, len(r.Data), w.LSN, w.Type, len(w.Data))
			}
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("replay failed with %v, want ErrCorrupt or a prefix", err)
			}
			return
		}
		if uint64(len(got)) < before {
			t.Fatalf("replay delivered %d records, the untouched segments hold %d", len(got), before)
		}
		if next != uint64(len(got))+1 {
			t.Fatalf("replay returned next lsn %d after %d records", next, len(got))
		}
	})
}

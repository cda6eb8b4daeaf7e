package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tagstore"
)

func sampleData(t testing.TB, seed int64) (*graph.Graph, *tagstore.Store) {
	t.Helper()
	p := gen.CorpusParams{
		Name: "idx",
		Graph: gen.GraphParams{
			Kind: gen.BarabasiAlbert, NumUsers: 80, M: 3,
			MinWeight: 0.2, MaxWeight: 1,
		},
		NumItems:       150,
		NumTags:        25,
		TriplesPerUser: 12,
		TagZipfS:       1.2,
		ItemZipfS:      1.2,
		Homophily:      0.3,
	}
	ds, err := gen.Generate(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph, ds.Store
}

func TestRoundTrip(t *testing.T) {
	g, s := sampleData(t, 1)
	var buf bytes.Buffer
	if err := Write(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	g2, s2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
		t.Fatal("graph edges differ after round trip")
	}
	if g.MaxWeight() == 0 || g2.MaxWeight() != g.MaxWeight() {
		t.Fatalf("MaxWeight %g after the round trip, %g before", g2.MaxWeight(), g.MaxWeight())
	}
	if !reflect.DeepEqual(s.Triples(), s2.Triples()) {
		t.Fatal("triples differ after round trip")
	}
	if s2.NumItems() != s.NumItems() || s2.NumTags() != s.NumTags() {
		t.Fatal("universe sizes differ after round trip")
	}
}

// TestSnapshotBytesStableAcrossMerge: a snapshot is written from
// Triples(), which a store derives from its tag-major lists, so a store
// that reached its state through a chain of merges — shuffled batches,
// repeated triples among them — must write the bytes a store built in
// one go over the same relation writes.
func TestSnapshotBytesStableAcrossMerge(t *testing.T) {
	g, built := sampleData(t, 4)
	var pieces []tagstore.Triple // counts split into ones, so batches repeat triples
	for _, tr := range built.Triples() {
		for ; tr.Count > 0; tr.Count-- {
			pieces = append(pieces, tagstore.Triple{User: tr.User, Item: tr.Item, Tag: tr.Tag, Count: 1})
		}
	}
	rng := rand.New(rand.NewSource(4))
	rng.Shuffle(len(pieces), func(a, b int) { pieces[a], pieces[b] = pieces[b], pieces[a] })
	merged, err := tagstore.NewBuilder(built.NumUsers(), built.NumItems(), built.NumTags()).Build()
	if err != nil {
		t.Fatal(err)
	}
	for len(pieces) > 0 {
		n := min(len(pieces), 1+rng.Intn(200))
		if merged, err = merged.Merge(pieces[:n], built.NumUsers(), built.NumItems(), built.NumTags()); err != nil {
			t.Fatal(err)
		}
		pieces = pieces[n:]
	}
	var want, got bytes.Buffer
	if err := Write(&want, g, built); err != nil {
		t.Fatal(err)
	}
	if err := Write(&got, g, merged); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("the merged store wrote %d bytes, the built one %d, and they differ", got.Len(), want.Len())
	}
}

func TestRoundTripEmpty(t *testing.T) {
	g, err := graph.NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := tagstore.NewBuilder(0, 0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	g2, s2, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumUsers() != 0 || s2.NumTriples() != 0 {
		t.Fatal("empty round trip wrong")
	}
}

func TestWriteRejectsMismatchedUniverses(t *testing.T) {
	g, _ := graph.NewBuilder(2).Build()
	s, _ := tagstore.NewBuilder(3, 1, 1).Build()
	if err := Write(&bytes.Buffer{}, g, s); err == nil {
		t.Fatal("mismatched universes accepted")
	}
}

func TestReadDetectsCorruption(t *testing.T) {
	g, s := sampleData(t, 2)
	var buf bytes.Buffer
	if err := Write(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit somewhere in the payload (past the magic).
	for _, pos := range []int{6, len(raw) / 2, len(raw) - 6} {
		cp := append([]byte(nil), raw...)
		cp[pos] ^= 0x40
		_, _, err := Read(bytes.NewReader(cp))
		if err == nil {
			t.Fatalf("corruption at byte %d undetected", pos)
		}
	}
	// Specifically: a payload flip must yield ErrCorrupt.
	cp := append([]byte(nil), raw...)
	cp[len(raw)/2] ^= 0x01
	_, _, err := Read(bytes.NewReader(cp))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("payload corruption error = %v, want ErrCorrupt", err)
	}
}

func TestReadRejectsBadMagicAndVersion(t *testing.T) {
	g, s := sampleData(t, 3)
	var buf bytes.Buffer
	if err := Write(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	fixTrailer(bad)
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}

	bad = append([]byte(nil), raw...)
	bad[4] = 99
	fixTrailer(bad)
	if _, _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	g, s := sampleData(t, 4)
	var buf bytes.Buffer
	if err := Write(&buf, g, s); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, n := range []int{0, 3, 8, len(raw) / 2, len(raw) - 1} {
		if _, _, err := Read(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

func TestFileRoundTrip(t *testing.T) {
	g, s := sampleData(t, 5)
	path := filepath.Join(t.TempDir(), "ds.frnd")
	if err := WriteFile(path, g, s); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Fatal("empty index file")
	}
	g2, s2, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || s2.NumTriples() != s.NumTriples() {
		t.Fatal("file round trip lost data")
	}
	if _, _, err := ReadFile(filepath.Join(t.TempDir(), "missing.frnd")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReadBoundsAllocationByPayload: the checksum does not vouch for
// the counts a body claims. A correctly checksummed stream of a few
// bytes that claims 2^26 edges must fail without reserving memory for
// them.
func TestReadBoundsAllocationByPayload(t *testing.T) {
	raw := append(magic[:], Version)
	raw = binary.AppendUvarint(raw, 2)     // users
	raw = binary.AppendUvarint(raw, 1<<26) // edges, of which none follow
	raw = append(raw, 0, 0, 0, 0)          // trailer
	fixTrailer(raw)
	var err error
	if n := allocated(func() { _, _, err = Read(bytes.NewReader(raw)) }); n > 64<<20 {
		t.Fatalf("decoding %d bytes allocated %d MB", len(raw), n>>20)
	}
	if err == nil {
		t.Fatal("a stream claiming 2^26 edges and holding none was accepted")
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// fixTrailer recomputes the checksum so structural validation (not CRC)
// is exercised.
func fixTrailer(raw []byte) {
	payload := raw[:len(raw)-4]
	sum := crc32ChecksumIEEE(payload)
	raw[len(raw)-4] = byte(sum)
	raw[len(raw)-3] = byte(sum >> 8)
	raw[len(raw)-2] = byte(sum >> 16)
	raw[len(raw)-1] = byte(sum >> 24)
}

func crc32ChecksumIEEE(b []byte) uint32 {
	// small indirection to keep the test self-contained
	return crcIEEE(b)
}

func TestPropertyRoundTripRandomCorpora(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := gen.CorpusParams{
			Name: "prop",
			Graph: gen.GraphParams{
				Kind: gen.BarabasiAlbert, NumUsers: 10 + rng.Intn(60), M: 1 + rng.Intn(3),
				MinWeight: 0.2, MaxWeight: 1,
			},
			NumItems:       10 + rng.Intn(100),
			NumTags:        2 + rng.Intn(20),
			TriplesPerUser: rng.Intn(20),
			TagZipfS:       1.1,
			ItemZipfS:      1.1,
			Homophily:      rng.Float64(),
		}
		ds, err := gen.Generate(p, seed)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := Write(&buf, ds.Graph, ds.Store); err != nil {
			return false
		}
		g2, s2, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(ds.Graph.Edges(), g2.Edges()) &&
			reflect.DeepEqual(ds.Store.Triples(), s2.Triples())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

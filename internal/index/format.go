// Package index defines the binary on-disk format for a social tagging
// dataset (social graph + tagging store) and implements its writer and
// reader. The format is what cmd/datagen emits and what the query tools
// load, and its build cost and size are reported in Table 2.
//
// Layout (all multi-byte integers are unsigned varints unless noted):
//
//	magic   "FRND"            4 bytes
//	version u8                currently 1
//	--- graph section ---
//	numUsers, numEdges
//	numEdges × { uDelta, v, weightBits (8 bytes little-endian) }
//	    edges sorted by (u, v); uDelta is the difference from the
//	    previous edge's u
//	--- tagging section ---
//	numUsers, numItems, numTags, numTriples
//	numTriples × { userDelta, tagDelta, item, count }
//	    triples in canonical (user, tag, item) order; userDelta resets
//	    tagDelta, which resets nothing (items stored raw — they are not
//	    monotone within a (user, tag) run after frequency sorting)
//	--- trailer ---
//	crc32 (IEEE, 4 bytes little-endian) of everything before it
package index

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"repro/internal/graph"
	"repro/internal/tagstore"
)

var magic = [4]byte{'F', 'R', 'N', 'D'}

// Version is the current format version.
const Version = 1

// ErrCorrupt is returned when the trailer checksum does not match the
// payload.
var ErrCorrupt = errors.New("index: checksum mismatch")

// Write serializes the dataset to w.
func Write(w io.Writer, g *graph.Graph, store *tagstore.Store) error {
	if g.NumUsers() != store.NumUsers() {
		return fmt.Errorf("index: graph has %d users, store has %d", g.NumUsers(), store.NumUsers())
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(Version); err != nil {
		return err
	}

	// graph section
	edges := g.Edges()
	putUvarint(bw, uint64(g.NumUsers()))
	putUvarint(bw, uint64(len(edges)))
	prevU := int32(0)
	for _, e := range edges {
		putUvarint(bw, uint64(e.U-prevU))
		prevU = e.U
		putUvarint(bw, uint64(e.V))
		var wb [8]byte
		binary.LittleEndian.PutUint64(wb[:], math.Float64bits(e.Weight))
		if _, err := bw.Write(wb[:]); err != nil {
			return err
		}
	}

	// tagging section
	trs := store.Triples()
	putUvarint(bw, uint64(store.NumUsers()))
	putUvarint(bw, uint64(store.NumItems()))
	putUvarint(bw, uint64(store.NumTags()))
	putUvarint(bw, uint64(len(trs)))
	prevUser, prevTag := int32(0), int32(0)
	for _, tr := range trs {
		du := tr.User - prevUser
		if du != 0 {
			prevTag = 0
		}
		putUvarint(bw, uint64(du))
		putUvarint(bw, uint64(tr.Tag-prevTag))
		prevUser, prevTag = tr.User, tr.Tag
		putUvarint(bw, uint64(tr.Item))
		putUvarint(bw, uint64(tr.Count))
	}

	if err := bw.Flush(); err != nil {
		return err
	}
	// trailer: checksum of everything written so far, straight to w
	var tb [4]byte
	binary.LittleEndian.PutUint32(tb[:], crc.Sum32())
	_, err := w.Write(tb[:])
	return err
}

// Read deserializes a dataset written by Write, verifying the checksum.
// The stream is buffered in memory so the trailer can be checked before
// the (possibly partially corrupt) payload is trusted.
func Read(r io.Reader) (*graph.Graph, *tagstore.Store, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, nil, err
	}
	if len(raw) < len(magic)+1+4 {
		return nil, nil, fmt.Errorf("index: truncated file (%d bytes)", len(raw))
	}
	payload, trailer := raw[:len(raw)-4], raw[len(raw)-4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
		return nil, nil, ErrCorrupt
	}
	return decodePayload(payload)
}

// minEdgeBytes is the smallest encoding of one edge: two one-byte
// varints and the eight weight bytes.
const minEdgeBytes = 10

// decodePayload parses the format body (everything between the start of
// the file and the trailer); trailing garbage is rejected. The checksum
// does not make the counts the body claims true, so nothing is
// preallocated beyond what the payload's length can hold.
func decodePayload(payload []byte) (*graph.Graph, *tagstore.Store, error) {
	br := bufio.NewReader(bytesReader(payload))
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if m != magic {
		return nil, nil, fmt.Errorf("index: bad magic %q", m)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	if ver != Version {
		return nil, nil, fmt.Errorf("index: unsupported version %d", ver)
	}

	numUsers, err := getUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	if _, err := fit(0, numUsers, "user count"); err != nil {
		return nil, nil, err
	}
	numEdges, err := getUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	// The writer emits canonical edges (each once, U < V, sorted by
	// (U, V)), so the graph is assembled straight into its row pages —
	// no dedup map, no re-sort. FromSortedEdges validates canonical
	// form, so a corrupt stream still fails cleanly.
	edges := make([]graph.Edge, 0, min(numEdges, uint64(len(payload)/minEdgeBytes)))
	prevU := int32(0)
	for i := uint64(0); i < numEdges; i++ {
		du, err := getUvarint(br)
		if err != nil {
			return nil, nil, err
		}
		v, err := getUvarint(br)
		if err != nil {
			return nil, nil, err
		}
		var wb [8]byte
		if _, err := io.ReadFull(br, wb[:]); err != nil {
			return nil, nil, err
		}
		u, err := fit(prevU, du, "edge start")
		if err != nil {
			return nil, nil, err
		}
		prevU = u
		vid, err := fit(0, v, "edge end")
		if err != nil {
			return nil, nil, err
		}
		edges = append(edges, graph.Edge{
			U: u, V: vid,
			Weight: math.Float64frombits(binary.LittleEndian.Uint64(wb[:])),
		})
	}

	su, err := getUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	if su != numUsers {
		return nil, nil, fmt.Errorf("index: tagging section user count %d != graph %d", su, numUsers)
	}
	numItems, err := getUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	numTags, err := getUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	if _, err := fit(0, numItems, "item count"); err != nil {
		return nil, nil, err
	}
	if _, err := fit(0, numTags, "tag count"); err != nil {
		return nil, nil, err
	}
	numTriples, err := getUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	// numTriples is untrusted, so the builder is not grown by it: a
	// header may claim far more triples than the payload holds.
	tb := tagstore.NewBuilder(int(su), int(numItems), int(numTags))
	prevUser, prevTag := int32(0), int32(0)
	for i := uint64(0); i < numTriples; i++ {
		du, err := getUvarint(br)
		if err != nil {
			return nil, nil, err
		}
		dt, err := getUvarint(br)
		if err != nil {
			return nil, nil, err
		}
		item, err := getUvarint(br)
		if err != nil {
			return nil, nil, err
		}
		count, err := getUvarint(br)
		if err != nil {
			return nil, nil, err
		}
		if du != 0 {
			prevTag = 0
		}
		user, err := fit(prevUser, du, "triple user")
		if err != nil {
			return nil, nil, err
		}
		tag, err := fit(prevTag, dt, "triple tag")
		if err != nil {
			return nil, nil, err
		}
		itemID, err := fit(0, item, "triple item")
		if err != nil {
			return nil, nil, err
		}
		n, err := fit(0, count, "triple count")
		if err != nil {
			return nil, nil, err
		}
		prevUser, prevTag = user, tag
		tb.AddCount(user, itemID, tag, n)
	}

	// Reject trailing garbage between the parsed payload and trailer.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, nil, fmt.Errorf("index: %d trailing bytes after payload", br.Buffered()+1)
	}

	g, err := graph.FromSortedEdges(int(numUsers), edges)
	if err != nil {
		return nil, nil, fmt.Errorf("index: rebuilding graph: %w", err)
	}
	store, err := tb.Build()
	if err != nil {
		return nil, nil, fmt.Errorf("index: rebuilding store: %w", err)
	}
	return g, store, nil
}

// fit returns prev+d, a decoded id, count or universe size, as an
// int32. The format's varints run to 2⁶⁴−1, and a payload the checksum
// passes may still hold one past the int32 range, which narrowing would
// wrap into a different id that can be valid; such a value is an error.
func fit(prev int32, d uint64, what string) (int32, error) {
	if d > math.MaxInt32 || int64(prev)+int64(d) > math.MaxInt32 {
		return 0, fmt.Errorf("index: %s %d+%d past the int32 range", what, prev, d)
	}
	return prev + int32(d), nil
}

// WriteFile serializes to a file path.
func WriteFile(path string, g *graph.Graph, store *tagstore.Store) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, g, store); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a dataset from a file path.
func ReadFile(path string) (*graph.Graph, *tagstore.Store, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Read(f)
}

func putUvarint(w *bufio.Writer, x uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	w.Write(buf[:n]) // bufio.Writer errors surface at Flush
}

func getUvarint(r *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(r)
}

// bytesReader adapts a byte slice to io.Reader without importing bytes
// solely for that (kept tiny and allocation-free).
type sliceReader struct {
	b   []byte
	pos int
}

func bytesReader(b []byte) *sliceReader { return &sliceReader{b: b} }

func (s *sliceReader) Read(p []byte) (int, error) {
	if s.pos >= len(s.b) {
		return 0, io.EOF
	}
	n := copy(p, s.b[s.pos:])
	s.pos += n
	return n, nil
}

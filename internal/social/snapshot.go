package social

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/tagstore"
	"repro/internal/vocab"
)

// Snapshot streaming: the wire form a joining replica bootstraps from.
// A snapshot is the compacted immutable state (index blob + the three
// vocabularies) pinned at the replication cursor observed under the
// same lock — the joiner imports it and then replays the fleet log
// suffix strictly after that LSN, so no mutation is lost or doubled.
//
// Layout (all lengths are unsigned varints):
//
//	magic   "SNPS"          4 bytes
//	version u8              currently 1
//	lsn     uvarint         replication cursor pinned with the state
//	4 × { len uvarint, bytes }:
//	    index.Write blob (graph + tagstore, self-checksummed)
//	    users, items, tags dictionaries (vocab.Dict.Write form)

var snapshotMagic = [4]byte{'S', 'N', 'P', 'S'}

// SnapshotStreamVersion is the current snapshot wire format version.
const SnapshotStreamVersion = 1

// SnapshotWithCursor is Snapshot plus the replication cursor pinned
// under the same critical section: the returned LSN is exactly the
// last fleet-log record folded into the returned state.
func (s *Service) SnapshotWithCursor() (*graph.Graph, *tagstore.Store, *vocab.Set, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		return nil, nil, nil, 0, ErrBroken
	}
	if err := s.compactLocked(); err != nil {
		return nil, nil, nil, 0, err
	}
	g, st := s.overlay.Snapshot()
	names := &vocab.Set{
		Users: s.names.Users.Clone(),
		Items: s.names.Items.Clone(),
		Tags:  s.names.Tags.Clone(),
	}
	return g, st, names, s.appliedLSN, nil
}

// ImportSnapshot hot-swaps the service's entire state for a snapshot
// exported elsewhere, setting the replication cursor to the LSN the
// snapshot was pinned at. All cached horizons are invalidated (they
// describe the old universe) and the read-path view is republished, so
// in-flight queries cut over atomically. Ownership of the arguments
// passes to the service.
//
// On a journaled service the imported state exists nowhere in its own
// journal, so it is checkpointed at once — the manifest then carries
// the new cursor and the old journal prefix is dropped. A persistence
// failure latches ErrBroken (memory is ahead of disk); reopening
// recovers the pre-import state and the join restarts from scratch.
func (s *Service) ImportSnapshot(g *graph.Graph, st *tagstore.Store, names *vocab.Set, lsn uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.broken {
		return ErrBroken
	}
	if err := s.install(g, st, names); err != nil {
		return err
	}
	s.writes.Store(0)
	s.appliedLSN = lsn
	if s.journal != nil {
		if err := s.checkpointLocked(); err != nil {
			s.broken = true
			return fmt.Errorf("%w (cause: persisting imported snapshot: %v)", ErrBroken, err)
		}
	}
	return nil
}

// WriteSnapshotStream serializes a snapshot (as returned by
// SnapshotWithCursor) to w in the framed wire form documented above.
func WriteSnapshotStream(w io.Writer, g *graph.Graph, st *tagstore.Store, names *vocab.Set, lsn uint64) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(SnapshotStreamVersion); err != nil {
		return err
	}
	var lb [binary.MaxVarintLen64]byte
	bw.Write(lb[:binary.PutUvarint(lb[:], lsn)])

	var blob bytes.Buffer
	if err := index.Write(&blob, g, st); err != nil {
		return err
	}
	if err := writeSection(bw, blob.Bytes()); err != nil {
		return err
	}
	for _, d := range []*vocab.Dict{names.Users, names.Items, names.Tags} {
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			return err
		}
		if err := writeSection(bw, buf.Bytes()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshotStream deserializes a stream written by
// WriteSnapshotStream, returning the state and its pinned cursor.
func ReadSnapshotStream(r io.Reader) (*graph.Graph, *tagstore.Store, *vocab.Set, uint64, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, nil, nil, 0, fmt.Errorf("social: reading snapshot magic: %w", err)
	}
	if m != snapshotMagic {
		return nil, nil, nil, 0, fmt.Errorf("social: bad snapshot magic %q", m)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, nil, nil, 0, err
	}
	if ver != SnapshotStreamVersion {
		return nil, nil, nil, 0, fmt.Errorf("social: unsupported snapshot version %d", ver)
	}
	lsn, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("social: reading snapshot lsn: %w", err)
	}
	blob, err := readSection(br)
	if err != nil {
		return nil, nil, nil, 0, fmt.Errorf("social: reading index section: %w", err)
	}
	g, st, err := index.Read(bytes.NewReader(blob))
	if err != nil {
		return nil, nil, nil, 0, err
	}
	names := &vocab.Set{}
	for _, slot := range []**vocab.Dict{&names.Users, &names.Items, &names.Tags} {
		sec, err := readSection(br)
		if err != nil {
			return nil, nil, nil, 0, fmt.Errorf("social: reading vocab section: %w", err)
		}
		d, err := vocab.Read(bytes.NewReader(sec))
		if err != nil {
			return nil, nil, nil, 0, err
		}
		*slot = d
	}
	return g, st, names, lsn, nil
}

func writeSection(bw *bufio.Writer, b []byte) error {
	var lb [binary.MaxVarintLen64]byte
	if _, err := bw.Write(lb[:binary.PutUvarint(lb[:], uint64(len(b)))]); err != nil {
		return err
	}
	_, err := bw.Write(b)
	return err
}

func readSection(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxSection = 1 << 32 // 4 GiB: far above any realistic snapshot
	if n > maxSection {
		return nil, fmt.Errorf("social: snapshot section of %d bytes exceeds limit", n)
	}
	// The claimed length is not trusted with an allocation: the section
	// grows only as its bytes arrive.
	b, err := io.ReadAll(io.LimitReader(br, int64(n)))
	if err != nil {
		return nil, err
	}
	if uint64(len(b)) < n {
		return nil, fmt.Errorf("social: snapshot section of %d bytes ends after %d: %w", n, len(b), io.ErrUnexpectedEOF)
	}
	return b, nil
}

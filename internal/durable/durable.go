// Package durable makes the mutable social tagging service survive
// process crashes. It is not a second service type: Open returns the
// one replica type, *social.Service, with a social.Journal attached
// whose only implementation lives here. Through it every mutation is
// appended to a write-ahead log (internal/wal) before it is applied,
// and checkpoints periodically fold the state into an atomic on-disk
// snapshot (the internal/index binary format plus the vocabulary
// files) so the log stays short. What remains in this package is that
// journal, the record codec (records.go, shared with the fleet
// replication log) and the MANIFEST/snapshot-directory I/O.
//
// Directory layout under the service root:
//
//	wal/                     segmented write-ahead log
//	snapshot-<lsn>-<gen>/    data.frnd + users.txt/items.txt/tags.txt
//	MANIFEST                 points at the live snapshot (atomic rename)
//
// Recovery contract. Open loads the snapshot named by MANIFEST (or
// starts empty), then replays every log record with LSN ≥ the
// snapshot's barrier. Under wal.SyncAlways every acknowledged mutation
// survives any crash; a torn tail (the unacknowledged final record) is
// discarded by the log layer. Checkpointing is crash-safe at every
// step: the snapshot's files and directory are synced, the directory
// appears atomically via rename (and the rename is synced), MANIFEST
// flips atomically afterwards, and log truncation runs last — a crash
// or power loss between any two steps leaves a state Open still
// recovers exactly.
package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/social"
	"repro/internal/tagstore"
	"repro/internal/vocab"
	"repro/internal/wal"
)

// Record types used in the write-ahead log. Exported because the fleet
// replication log (internal/fleet) reuses the exact record format: one
// codec, one framing, whether the log backs a single process's
// crash-safety or a fleet's replica catch-up.
const (
	RecBefriend wal.Type = 1
	RecTag      wal.Type = 2
	// RecTerm marks a leadership change in the quorum-replicated fleet
	// log (internal/quorum): the record's payload names the term and the
	// elected leader, and every record after it up to the next RecTerm
	// was appended under that leadership. It never appears in a single
	// process's crash-safety log; replicas skip it with a cursor
	// advance (a skip entry of an apply page), never an apply.
	RecTerm wal.Type = 3
	// RecBefriendAt / RecTagAt are the LSN-stamped variants a durable
	// REPLICA writes to its own crash-safety log when a mutation arrives
	// through the fleet replication stream: the payload carries the
	// fleet LSN alongside the mutation, so replay restores both the
	// state and the replication cursor — a restarted durable replica
	// resumes the stream from its cursor instead of restreaming the
	// fleet log from the beginning. They never appear in the fleet log
	// itself (the framing there stamps LSNs).
	RecBefriendAt wal.Type = 4
	RecTagAt      wal.Type = 5
)

const (
	manifestName   = "MANIFEST"
	snapshotPrefix = "snapshot-"
	walDirName     = "wal"
)

// Config tunes Open.
type Config struct {
	// Service configures the service Open returns.
	Service social.ServiceConfig
	// CheckpointEvery takes a checkpoint after this many mutations
	// (0 disables automatic checkpoints; call Checkpoint explicitly).
	CheckpointEvery int
	// Sync selects the log's fsync policy. The default (wal.SyncAlways)
	// makes every acknowledged mutation durable; wal.SyncManual trades
	// the tail for group-commit throughput.
	Sync wal.SyncPolicy
	// SegmentBytes overrides the log's segment rotation threshold
	// (0 = the log's default).
	SegmentBytes int64
}

// DefaultConfig checkpoints every 4096 mutations with full sync.
func DefaultConfig() Config {
	return Config{
		Service:         social.DefaultServiceConfig(),
		CheckpointEvery: 4096,
		Sync:            wal.SyncAlways,
	}
}

// journal is the social.Journal behind a durable service: the
// write-ahead log, the MANIFEST and snapshot directories, and the
// checkpoint policy. The service calls it under its own lock, so it
// carries none.
type journal struct {
	dir string
	log *wal.Log
	// checkpointEvery is Config.CheckpointEvery; writes counts appends
	// since the last checkpoint.
	checkpointEvery int
	writes          int
	// gen is the live snapshot's generation (0: none yet, or one a v1/v2
	// MANIFEST names); each checkpoint writes the next.
	gen uint64
	// recovery statistics from Open, for observability
	recoveredRecords int
	snapshotBarrier  uint64
}

// Open recovers (or initializes) a durable service rooted at dir: load
// the snapshot MANIFEST names (or start empty), replay the log suffix
// the snapshot does not cover through the service's own apply path,
// then attach the journal so every later mutation is logged first.
func Open(dir string, cfg Config) (*social.Service, error) {
	if cfg.Service == (social.ServiceConfig{}) {
		cfg.Service = social.DefaultServiceConfig()
	}
	if cfg.CheckpointEvery < 0 {
		return nil, fmt.Errorf("durable: negative CheckpointEvery")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	man, snapDir, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	var svc *social.Service
	if snapDir == "" {
		svc, err = social.NewService(cfg.Service)
	} else {
		svc, err = loadSnapshot(filepath.Join(dir, snapDir), cfg.Service)
	}
	if err != nil {
		return nil, err
	}
	// The snapshot's state already covers the fleet stream up to the
	// cursor the manifest recorded; stamped records replayed below may
	// advance it further.
	if err := svc.Replay(social.Mutation{LSN: man.cursor}); err != nil {
		return nil, err
	}

	// Open the log first (repairs a torn tail), then replay the suffix
	// the snapshot does not cover.
	log, err := wal.Open(filepath.Join(dir, walDirName), wal.Options{
		Sync:         cfg.Sync,
		SegmentBytes: cfg.SegmentBytes,
	})
	if err != nil {
		return nil, err
	}
	j := &journal{dir: dir, log: log, checkpointEvery: cfg.CheckpointEvery, snapshotBarrier: man.barrier, gen: man.gen}
	if j.recoveredRecords, err = replay(dir, man.barrier, svc); err != nil {
		log.Close()
		return nil, err
	}
	// Clean any leftovers from interrupted checkpoints.
	if err := cleanStale(dir, snapDir); err != nil {
		log.Close()
		return nil, err
	}
	svc.AttachJournal(j)
	return svc, nil
}

// replay feeds every log record at or past the snapshot barrier to
// svc.Replay and returns how many there were. Stamped records restore
// the replication cursor advance-only: the live path skips
// deterministic rejections without logging them, so the logged stamps
// may have gaps a strict cursor check would refuse.
func replay(dir string, barrier uint64, svc *social.Service) (int, error) {
	n := 0
	_, err := wal.Replay(filepath.Join(dir, walDirName), func(r wal.Record) error {
		if r.LSN < barrier {
			return nil // already folded into the snapshot
		}
		n++
		m, err := DecodeMutation(r)
		if err != nil {
			return fmt.Errorf("durable: lsn %d: %w", r.LSN, err)
		}
		return svc.Replay(m)
	})
	return n, err
}

// DecodeMutation is the inverse of EncodeMutation. A RecTerm record —
// which only the quorum-replicated fleet log holds — carries nothing to
// apply and decodes to the zero Kind, the skip a replica's cursor
// advances past. The LSN of a plain record rides in the log's framing,
// not the payload: a reader that needs it stamps m.LSN from r.LSN.
func DecodeMutation(r wal.Record) (m social.Mutation, err error) {
	data := r.Data
	if r.Type == RecBefriendAt || r.Type == RecTagAt {
		if m.LSN, data, err = unstamp(data); err != nil {
			return m, err
		}
	}
	switch r.Type {
	case RecBefriend, RecBefriendAt:
		m.Kind = social.KindBefriend
		m.User, m.Friend, m.Weight, err = DecodeBefriend(data)
	case RecTag, RecTagAt:
		m.Kind = social.KindTag
		m.User, m.Item, m.Tag, err = DecodeTag(data)
	case RecTerm:
		_, _, err = DecodeTerm(data)
	default:
		err = fmt.Errorf("unknown record type %d", r.Type)
	}
	return m, err
}

// EncodeMutation returns the log record for m: the plain record types
// for an unstamped mutation (the form the fleet replication log also
// stores, its framing stamping the LSN), the stamped ones when m
// carries a fleet LSN. A stamped mutation is ONE record, so in a
// replica's own log the cursor itself is durable: a restarted replica
// recovers it from the manifest and the stamped log suffix and resumes
// the fleet stream from there instead of restreaming history.
func EncodeMutation(m social.Mutation) (wal.Type, []byte, error) {
	switch {
	case m.Kind == social.KindBefriend && m.LSN == 0:
		return RecBefriend, EncodeBefriend(m.User, m.Friend, m.Weight), nil
	case m.Kind == social.KindBefriend:
		return RecBefriendAt, stamp(m.LSN, EncodeBefriend(m.User, m.Friend, m.Weight)), nil
	case m.Kind == social.KindTag && m.LSN == 0:
		return RecTag, EncodeTag(m.User, m.Item, m.Tag), nil
	case m.Kind == social.KindTag:
		return RecTagAt, stamp(m.LSN, EncodeTag(m.User, m.Item, m.Tag)), nil
	}
	return 0, nil, fmt.Errorf("durable: no record type for mutation kind %q", m.Kind)
}

func (j *journal) Append(m social.Mutation) (checkpointDue bool, err error) {
	t, payload, err := EncodeMutation(m)
	if err != nil {
		return false, err
	}
	if _, err := j.log.Append(t, payload); err != nil {
		return false, err
	}
	j.writes++
	return j.checkpointEvery > 0 && j.writes >= j.checkpointEvery, nil
}

// Checkpoint writes the state as a fresh snapshot directory, flips
// MANIFEST to it, and truncates the log prefix it covers — in that
// order, each step atomic (see the package comment). The directory
// takes the next generation, so a checkpoint at the log position of
// the live one (nothing logged since) never collides with it.
func (j *journal) Checkpoint(g *graph.Graph, st *tagstore.Store, names *vocab.Set, cursor uint64) error {
	barrier := j.log.NextLSN() // first LSN NOT covered by this snapshot
	man := manifest{barrier: barrier, cursor: cursor, gen: j.gen + 1}

	tmp := filepath.Join(j.dir, fmt.Sprintf(".tmp-%d", barrier))
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	if err := index.WriteFile(filepath.Join(tmp, "data.frnd"), g, st); err != nil {
		return err
	}
	if err := names.WriteDir(tmp); err != nil {
		return err
	}
	// The snapshot reaches the disk before MANIFEST names it and the log
	// it replaces is truncated: its files and entries now, the state
	// directory's entry for it after the rename.
	if err := syncSnapshot(tmp); err != nil {
		return err
	}
	final := man.snapDir()
	// A directory by that name is a leftover of a checkpoint that failed
	// before its MANIFEST flip; the live snapshot has another generation.
	if err := os.RemoveAll(filepath.Join(j.dir, final)); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, final)); err != nil {
		return err
	}
	if err := syncPath(j.dir); err != nil {
		return err
	}
	// The replication cursor is part of the checkpointed state: the log
	// prefix holding the stamped records that advanced it is about to be
	// truncated, so the manifest must carry it across restarts.
	if err := writeManifest(j.dir, man); err != nil {
		return err
	}
	j.gen = man.gen
	// The log prefix below the barrier is now redundant. Rotation puts
	// the barrier at a segment boundary so truncation can drop it all.
	if err := j.log.Rotate(); err != nil {
		return err
	}
	if err := j.log.TruncateThrough(barrier - 1); err != nil {
		return err
	}
	if err := cleanStale(j.dir, final); err != nil {
		return err
	}
	j.writes = 0
	j.snapshotBarrier = barrier
	return nil
}

// syncSnapshot fsyncs every file of the snapshot directory dir, then
// dir itself.
func syncSnapshot(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := syncPath(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return syncPath(dir)
}

// syncPath fsyncs one file or directory.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func (j *journal) Sync() error { return j.log.Sync() }

func (j *journal) Close() error { return j.log.Close() }

func (j *journal) Stats() social.JournalStats {
	return social.JournalStats{
		RecoveredRecords:      j.recoveredRecords,
		SnapshotBarrier:       j.snapshotBarrier,
		LogSegments:           j.log.Segments(),
		WritesSinceCheckpoint: j.writes,
	}
}

// cleanStale removes snapshot directories other than the live one and
// any interrupted temporary directories.
func cleanStale(dir, live string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || name == live || name == walDirName {
			continue
		}
		if strings.HasPrefix(name, snapshotPrefix) || strings.HasPrefix(name, ".tmp-") {
			if err := os.RemoveAll(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// manifest is what MANIFEST records: the live snapshot's barrier (the
// first log LSN it does not cover), the replication cursor it covers,
// and its generation.
type manifest struct {
	barrier, cursor, gen uint64
}

// snapDir names the snapshot directory after the log position it
// covers and its generation. Generation 0 is a directory a v1 or v2
// MANIFEST names, written before generations existed.
func (m manifest) snapDir() string {
	if m.gen == 0 {
		return fmt.Sprintf("%s%016x", snapshotPrefix, m.barrier)
	}
	return fmt.Sprintf("%s%016x-%d", snapshotPrefix, m.barrier, m.gen)
}

// readManifest returns the live manifest and its snapshot directory
// name, or ({barrier 1}, "", nil) for a fresh directory. Every manifest
// version loads: v1 ("v1\n<barrier>\n") holds the barrier, v2 adds the
// replication cursor and v3 the generation; a field an older version
// lacks reads as 0.
func readManifest(dir string) (manifest, string, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{barrier: 1}, "", nil
	}
	if err != nil {
		return manifest{}, "", err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var m manifest
	fields := map[string][]*uint64{
		"v1": {&m.barrier},
		"v2": {&m.barrier, &m.cursor},
		"v3": {&m.barrier, &m.cursor, &m.gen},
	}[lines[0]]
	if fields == nil || len(lines) != len(fields)+1 {
		return manifest{}, "", fmt.Errorf("durable: malformed MANIFEST %q", raw)
	}
	for i, f := range fields {
		if *f, err = strconv.ParseUint(lines[i+1], 10, 64); err != nil {
			return manifest{}, "", fmt.Errorf("durable: malformed MANIFEST line %d: %w", i+2, err)
		}
	}
	snapDir := m.snapDir()
	if _, err := os.Stat(filepath.Join(dir, snapDir)); err != nil {
		return manifest{}, "", fmt.Errorf("durable: MANIFEST names missing snapshot %s: %w", snapDir, err)
	}
	return m, snapDir, nil
}

// writeManifest atomically points MANIFEST at the snapshot m describes,
// in the v3 form.
func writeManifest(dir string, m manifest) error {
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(f, "v3\n%d\n%d\n%d\n", m.barrier, m.cursor, m.gen); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func loadSnapshot(snapDir string, cfg social.ServiceConfig) (*social.Service, error) {
	g, st, err := index.ReadFile(filepath.Join(snapDir, "data.frnd"))
	if err != nil {
		return nil, fmt.Errorf("durable: loading snapshot index: %w", err)
	}
	names, err := vocab.ReadDir(snapDir)
	if err != nil {
		return nil, fmt.Errorf("durable: loading snapshot vocabularies: %w", err)
	}
	return social.Restore(cfg, g, st, names)
}

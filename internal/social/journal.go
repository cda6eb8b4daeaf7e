package social

import (
	"errors"

	"repro/internal/graph"
	"repro/internal/tagstore"
	"repro/internal/vocab"
)

// Journal is what makes a Service durable: a write-ahead record of its
// mutations plus checkpoints that let the record stay short. The
// service calls every method under its own lock, so an implementation
// needs no synchronisation of its own. internal/durable holds the one
// production implementation (WAL + MANIFEST + snapshot directories).
type Journal interface {
	// Append makes m durable before the service applies it; on error
	// nothing was recorded and nothing will be applied. checkpointDue
	// reports that the journal's checkpoint policy wants a Checkpoint
	// once m is applied.
	Append(m Mutation) (checkpointDue bool, err error)
	// Checkpoint atomically persists the compacted state and replication
	// cursor, then drops the journal prefix the checkpoint covers. names
	// is the service's live vocabulary: valid until Checkpoint returns,
	// not to be retained.
	Checkpoint(g *graph.Graph, st *tagstore.Store, names *vocab.Set, cursor uint64) error
	// Sync forces appended records to stable storage.
	Sync() error
	// Close releases the journal; the service is not used afterwards.
	Close() error
	Stats() JournalStats
}

// JournalStats are a journaled service's durability counters.
type JournalStats struct {
	// RecoveredRecords is the number of journal records replayed when the
	// service was opened.
	RecoveredRecords int
	// SnapshotBarrier is the first journal LSN not covered by the live
	// checkpoint.
	SnapshotBarrier uint64
	// LogSegments is the number of live journal segment files.
	LogSegments int
	// WritesSinceCheckpoint counts mutations since the last checkpoint.
	WritesSinceCheckpoint int
}

// ErrBroken is returned once a journaled mutation was appended but then
// failed to apply, leaving memory behind the log; reopen the directory
// to recover to a consistent state.
var ErrBroken = errors.New("social: service broken by earlier write failure; reopen to recover")

// AttachJournal makes the service durable from here on: every accepted
// mutation is appended to j before it is applied, and reads fold in
// every acknowledged write. Recovery attaches the journal after
// replaying it (Replay) and before the service is shared between
// goroutines.
func (s *Service) AttachJournal(j Journal) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.journal = j
}

// Replay applies one record recovered from a journal: no cursor
// discipline (the funnel skipped rejected records without journaling
// them, so recovered stamps have gaps; the cursor is restored
// advance-only), no Validate (the record was validated when it was
// journaled, possibly under an older rule, and replay must reproduce
// the state it produced then), no journal append. A Mutation carrying
// only an LSN restores a checkpointed cursor. Recovery only — live
// writes go through Apply.
func (s *Service) Replay(m Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Kind != kindSkip {
		if err := s.applyLocked(m); err != nil {
			return err
		}
	}
	s.advanceCursor(m.LSN)
	return nil
}

// Checkpoint folds the current state into the journal's atomic on-disk
// snapshot and drops the journal prefix it covers. A no-op on a
// volatile service.
func (s *Service) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	if s.broken {
		return ErrBroken
	}
	return s.checkpointLocked()
}

// checkpointLocked compacts and hands the journal the state to persist.
// Callers hold s.mu and have checked that a journal is attached.
func (s *Service) checkpointLocked() error {
	if err := s.compactLocked(); err != nil {
		return err
	}
	g, st := s.overlay.Snapshot()
	return s.journal.Checkpoint(g, st, s.names, s.appliedLSN)
}

// Sync forces journaled records to stable storage (meaningful when the
// journal does not sync every append). A no-op on a volatile service.
func (s *Service) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	return s.journal.Sync()
}

// Close syncs and closes the journal; the service must not be used
// afterwards. A no-op on a volatile service.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	return s.journal.Close()
}

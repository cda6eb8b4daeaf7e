package fleet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/wal"
)

// RepLog is the fleet's replication log: an LSN-stamped durable record
// of every mutation the front-end accepted, appended *before* the
// write is acknowledged. It is the source a replica behind the
// front-end's held tail is streamed from — the record of exactly the
// history an ejected replica missed —
// and reuses internal/wal's segmented CRC-protected format and
// internal/durable's record codec, so one framing and one payload
// encoding serve both single-process crash-safety and fleet
// replication.
//
// The log is opened with wal.SyncAlways: a front-end crash must never
// lose a record it acknowledged, or a restarted front-end would
// reissue its LSN for a different mutation and replicas would
// dedup-skip the new write. Reclamation is governed by the truncation
// barrier (SetBarrier at the fleet's minimum applied LSN + 1): sealed
// segments every replica has applied are removable, while the suffix
// any replica still needs is pinned — which also means a long-dead
// replica pins the log until it is removed from the fleet or the
// front-end restarts with a fresh replica set.
type RepLog struct {
	log *wal.Log

	// minApplied reports the fleet's minimum applied LSN to the
	// front-end append's truncation sweeps (set by Frontend.UseRepLog).
	minApplied func() uint64
}

// replogTruncateEvery is how many appends ride between truncation
// sweeps (each sweep reclaims sealed segments below the fleet's minimum
// applied LSN).
const replogTruncateEvery = 1024

// mutationLog is all the front-end's one write path knows of the log
// behind it. The single-front-end RepLog and the quorum-replicated
// consensus log (quorumLog) are the two implementations.
type mutationLog interface {
	// leading is nil on the node that appends records and streams them
	// to replicas — always, for a RepLog; a quorum follower answers its
	// NotLeaderError (307 on the wire).
	leading() error
	// append durably logs one record and returns its LSN.
	append(ctx context.Context, t wal.Type, payload []byte) (uint64, error)
	// Head is the highest LSN the log has issued; a replica cursor
	// beyond it is epoch-mismatch evidence (checkEpoch).
	Head() uint64
	// deliverable is the highest LSN replicas may be handed: the head,
	// or in quorum mode the commit LSN — an uncommitted record must
	// never reach a replica, or a conflicting leader change would leave
	// it serving history the cluster disowned.
	deliverable() uint64
	// ReadFrom streams the records in [from, deliverable] through fn and
	// returns the bound it captured at call time.
	ReadFrom(from uint64, fn func(wal.Record) error) (uint64, error)
	// stats fills the log's own share of ReplogStats.
	stats() ReplogStats
	Close() error
}

// OpenRepLog opens (creating if necessary) the replication log in dir.
func OpenRepLog(dir string) (*RepLog, error) {
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return nil, fmt.Errorf("fleet: opening replication log: %w", err)
	}
	return &RepLog{log: l}, nil
}

// Close syncs and closes the log.
func (r *RepLog) Close() error { return r.log.Close() }

// Head returns the LSN of the last appended record (0 for an empty log).
func (r *RepLog) Head() uint64 { return r.log.NextLSN() - 1 }

// Barrier returns the current truncation barrier (0 = none).
func (r *RepLog) Barrier() uint64 { return r.log.Barrier() }

// AppendTag durably appends one tagging mutation and returns its LSN.
func (r *RepLog) AppendTag(user, item, tag string) (uint64, error) {
	return r.log.Append(durable.RecTag, durable.EncodeTag(user, item, tag))
}

// ReadFrom streams records with LSN ≥ from through fn, up to the head
// captured at call time (returned). Damage anywhere in the
// acknowledged range — including an externally torn tail — fails with
// wal.ErrCorrupt instead of surfacing a torn prefix; catch-up treats
// that as a clean retryable error.
func (r *RepLog) ReadFrom(from uint64, fn func(wal.Record) error) (uint64, error) {
	return r.log.ReadFrom(from, fn)
}

func (r *RepLog) leading() error      { return nil }
func (r *RepLog) deliverable() uint64 { return r.Head() }

// append is the front-end's append: the record, its trace span, and the
// periodic maintenance — every replogTruncateEvery records, raise the
// truncation barrier to the fleet's minimum applied LSN + 1 and reclaim
// the sealed prefix below it.
func (r *RepLog) append(ctx context.Context, t wal.Type, payload []byte) (uint64, error) {
	_, sp := obs.StartSpan(ctx, "replog.append")
	defer sp.End()
	lsn, err := r.log.Append(t, payload)
	if err != nil {
		return 0, fmt.Errorf("fleet: replication log append: %w", err)
	}
	sp.SetInt("lsn", int64(lsn))
	if lsn%replogTruncateEvery == 0 {
		r.log.SetBarrier(r.minApplied() + 1)
		// Reclaim everything the barrier permits; errors are advisory (the
		// next sweep retries) but must not fail the write.
		_ = r.log.TruncateThrough(r.Head())
	}
	return lsn, nil
}

func (r *RepLog) stats() ReplogStats {
	return ReplogStats{Head: r.Head(), Barrier: r.Barrier(), Segments: r.log.Segments()}
}

// quorumLog is the consensus log in the mutationLog role: Head and
// Close are the node's own, the deliverable prefix is the committed one.
type quorumLog struct {
	*quorum.Node
	f *Frontend // MutationTimeout bounds the majority ack
}

func (q quorumLog) leading() error {
	if q.IsLeader() {
		return nil
	}
	return q.NotLeader()
}

func (q quorumLog) deliverable() uint64 { return q.CommitLSN() }

func (q quorumLog) ReadFrom(from uint64, fn func(wal.Record) error) (uint64, error) {
	return q.ReadCommitted(from, fn)
}

// append appends to the consensus log and waits for the majority ack.
// Only after it returns does the record exist for the fleet — streaming
// an uncommitted record could surface a write a new leader later
// disowns.
func (q quorumLog) append(ctx context.Context, t wal.Type, payload []byte) (uint64, error) {
	// The span covers append → majority replicate → commit; the caller's
	// ctx carries trace values only (cancellation already stripped), so
	// the append still runs under its own timeout.
	ctx, sp := obs.StartSpan(ctx, "quorum.commit")
	defer sp.End()
	ctx, cancel := context.WithTimeout(ctx, q.f.MutationTimeout)
	defer cancel()
	lsn, err := q.Node.Append(ctx, t, payload)
	if err != nil {
		var nle *quorum.NotLeaderError
		if errors.As(err, &nle) {
			return 0, err
		}
		return 0, unavailablef("quorum append: %v", err)
	}
	sp.SetInt("lsn", int64(lsn))
	sp.SetInt("term", int64(q.Term()))
	return lsn, nil
}

func (q quorumLog) stats() ReplogStats {
	qs := q.Stats()
	return ReplogStats{Head: qs.Head, Segments: qs.Segments}
}

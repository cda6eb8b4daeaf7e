package fleet

import (
	"errors"
	"fmt"

	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/wal"
)

// RepLog is the fleet's replication log: an LSN-stamped durable record
// of every mutation the front-end accepted, appended *before* the
// fan-out to replicas. It is the source a rejoining replica catches up
// from — the record of exactly the history an ejected replica missed —
// and reuses internal/wal's segmented CRC-protected format and
// internal/durable's record codec, so one framing and one payload
// encoding serve both single-process crash-safety and fleet
// replication.
//
// The log is opened with wal.SyncAlways: a front-end crash must never
// lose a record that was fanned out, or a restarted front-end would
// reissue its LSN for a different mutation and replicas would
// dedup-skip the new write. Reclamation is governed by the truncation
// barrier (SetBarrier at the fleet's minimum applied LSN + 1): sealed
// segments every replica has applied are removable, while the suffix
// any replica still needs is pinned — which also means a long-dead
// replica pins the log until it is removed from the fleet or the
// front-end restarts with a fresh replica set.
type RepLog struct {
	log *wal.Log
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

// Segments returns the number of live segment files.
func (r *RepLog) Segments() int { return r.log.Segments() }

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

// SetBarrier pins records with LSN ≥ lsn against truncation.
func (r *RepLog) SetBarrier(lsn uint64) { r.log.SetBarrier(lsn) }

// TruncateThrough reclaims sealed segments wholly at or below lsn,
// capped by the barrier.
func (r *RepLog) TruncateThrough(lsn uint64) error { return r.log.TruncateThrough(lsn) }

// Page reads one /v2/replog page: up to max records from LSN from.
func (r *RepLog) Page(from uint64, max int) (server.ReplogPage, error) {
	page := server.ReplogPage{From: from}
	head, err := r.ReadFrom(from, func(rec wal.Record) error {
		if len(page.Records) >= max {
			return errPageFull
		}
		page.Records = append(page.Records, server.ReplogRecord{
			LSN:  rec.LSN,
			Type: uint8(rec.Type),
			Data: append([]byte(nil), rec.Data...),
		})
		return nil
	})
	if err != nil && !errors.Is(err, errPageFull) {
		return server.ReplogPage{}, err
	}
	page.Head = head
	return page, nil
}

// errPageFull halts a Page read once max records are collected.
var errPageFull = errors.New("fleet: replog page full")

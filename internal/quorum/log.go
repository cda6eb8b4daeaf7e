package quorum

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/durable"
	"repro/internal/wal"
)

// qlog is the consensus log: the same segmented, fsync-per-append
// wal.Log the PR 5 replication log uses, plus the term index consensus
// needs. Terms are not stored per frame — the framing is unchanged, so
// a single-front-end replication log can be promoted to a quorum log in
// place. Instead, RecTerm records mark leadership changes, and every
// record's term is the term of the nearest RecTerm at or before it
// (records from a pre-quorum log, before the first RecTerm, carry
// term 0, or a persisted base's term once their RecTerm is truncated).
type qlog struct {
	wal *wal.Log

	mu sync.Mutex
	// spans is the term index, ascending by start LSN: spans[i] covers
	// [spans[i].start, spans[i+1].start). Rebuilt from RecTerm records
	// at open, extended on append, pruned on conflict truncation.
	spans []termSpan
	head  uint64
}

type termSpan struct {
	start uint64
	term  uint64
}

// segmentBytes is the log's segment size (0: the wal default); tests
// shrink it to seal segments.
var segmentBytes int64

// openQLog opens (creating if necessary) the consensus log in dir and
// rebuilds the term index from its RecTerm records and base (zero:
// none).
func openQLog(dir string, base termSpan) (*qlog, error) {
	l, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways, SegmentBytes: segmentBytes})
	if err != nil {
		return nil, fmt.Errorf("quorum: opening consensus log: %w", err)
	}
	q := &qlog{wal: l}
	head, err := l.ReadFrom(l.Start(0), func(rec wal.Record) error {
		if rec.Type != durable.RecTerm {
			return nil
		}
		term, _, derr := durable.DecodeTerm(rec.Data)
		if derr != nil {
			return fmt.Errorf("quorum: lsn %d: %w", rec.LSN, derr)
		}
		q.spans = append(q.spans, termSpan{start: rec.LSN, term: term})
		return nil
	})
	if base.term > 0 {
		i := sort.Search(len(q.spans), func(i int) bool { return q.spans[i].start > base.start })
		q.spans = slices.Insert(q.spans, i, base)
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	q.head = head
	return q, nil
}

func (q *qlog) close() error { return q.wal.Close() }

// headLSN returns the LSN of the last appended record (0 when empty).
func (q *qlog) headLSN() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.head
}

// lastTerm returns the term of the head record (0 for an empty or
// wholly pre-quorum log).
func (q *qlog) lastTerm() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.termOfLocked(q.head)
}

// termOf returns the term a record was appended under (0 for LSN 0 and
// for pre-quorum records).
func (q *qlog) termOf(lsn uint64) uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.termOfLocked(lsn)
}

func (q *qlog) termOfLocked(lsn uint64) uint64 {
	if lsn == 0 {
		return 0
	}
	for i := len(q.spans) - 1; i >= 0; i-- {
		if q.spans[i].start <= lsn {
			return q.spans[i].term
		}
	}
	return 0
}

// append writes one record carrying the given term and returns its
// LSN. The leader appends under its current term; a follower appends
// entries copied from the leader under the entry's original term.
func (q *qlog) append(term uint64, t wal.Type, data []byte) (uint64, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	lsn, err := q.wal.Append(t, data)
	if err != nil {
		return 0, err
	}
	q.head = lsn
	if n := len(q.spans); n == 0 || q.spans[n-1].term != term {
		q.spans = append(q.spans, termSpan{start: lsn, term: term})
	}
	return lsn, nil
}

// truncateFrom discards every record with LSN ≥ lsn (conflict
// resolution: the suffix disagrees with the elected leader) and prunes
// the term index to match.
func (q *qlog) truncateFrom(lsn uint64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if err := q.wal.TruncateFrom(lsn); err != nil {
		return err
	}
	if lsn-1 < q.head {
		q.head = lsn - 1
	}
	for len(q.spans) > 0 && q.spans[len(q.spans)-1].start >= lsn {
		q.spans = q.spans[:len(q.spans)-1]
	}
	return nil
}

// readRange streams records with from ≤ LSN ≤ through (term-stamped
// from the index) into fn.
func (q *qlog) readRange(from, through uint64, fn func(rec wal.Record, term uint64) error) error {
	_, err := q.wal.ReadThrough(from, through, func(rec wal.Record) error {
		return fn(rec, q.termOf(rec.LSN))
	})
	return err
}

// segments reports the number of live segment files (observability).
func (q *qlog) segments() int { return q.wal.Segments() }

// Package wal implements a segmented write-ahead log: the durability
// substrate under the dynamic-updates layer (internal/durable). Every
// mutation is appended as a typed, CRC-protected record before it is
// applied, so a crash loses at most the un-synced suffix and never
// corrupts what was acknowledged.
//
// On-disk layout. The log is a directory of segment files named
// wal-%016x.seg, where the hex number is the LSN of the segment's first
// record. Each segment starts with a fixed header and is followed by a
// sequence of frames:
//
//	header: magic "FWAL" | version u8 | firstLSN u64-LE | crc32 u32-LE
//	frame:  payloadLen uvarint | type u8 | payload | crc32 u32-LE
//
// The frame checksum covers the type byte and payload. LSNs are dense:
// record n of a segment with firstLSN f has LSN f+n.
//
// Torn-tail semantics. A crash can leave a partially written frame at
// the end of the *last* segment. Open and Replay both stop at the first
// frame of the last segment that is incomplete or fails its checksum;
// Open additionally truncates the file there so the next append starts
// from a clean boundary. The same damage in any non-last segment is
// unrecoverable corruption and is reported as ErrCorrupt — acknowledged
// history must never silently vanish.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Type tags a record with its application-level meaning. The WAL itself
// is agnostic; internal/durable defines the concrete types.
type Type uint8

// Record is one replayed log entry.
type Record struct {
	// LSN is the record's log sequence number (dense, starting at 1).
	LSN uint64
	// Type is the application-level record type.
	Type Type
	// Data is the record payload. During replay the slice is only valid
	// until the callback returns; copy it to retain it.
	Data []byte
}

// SyncPolicy controls when appends are forced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: maximum durability, one
	// fsync per mutation.
	SyncAlways SyncPolicy = iota
	// SyncManual leaves fsync to explicit Sync calls (group commit);
	// a crash may lose the records appended since the last Sync.
	SyncManual
)

// Options configures a Log.
type Options struct {
	// SegmentBytes is the rotation threshold: once the active segment
	// reaches this many bytes a new segment is started. Default 4 MiB.
	SegmentBytes int64
	// Sync selects the fsync policy. Default SyncAlways.
	Sync SyncPolicy
}

func (o *Options) normalize() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
}

// ErrCorrupt reports damage in the middle of acknowledged history (a
// bad frame in a non-last segment, or a bad segment header).
var ErrCorrupt = errors.New("wal: corrupt log")

// ErrTruncated reports a read from an LSN below the retained log start:
// the records were reclaimed (TruncateThrough), not damaged, and the
// read can start over from Start(0).
var ErrTruncated = errors.New("wal: lsn precedes the retained log start")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

const (
	headerSize  = 4 + 1 + 8 + 4
	version     = 1
	maxPayload  = 1 << 26 // 64 MiB sanity bound on a single record
	segSuffix   = ".seg"
	segPrefix   = "wal-"
	lsnHexWidth = 16
)

var segMagic = [4]byte{'F', 'W', 'A', 'L'}

// Log is an append-only segmented write-ahead log. It is safe for
// concurrent use.
type Log struct {
	dir  string
	opts Options

	mu          sync.Mutex
	closed      bool
	segs        []segmentInfo // sorted by firstLSN; last is active
	active      *os.File
	bw          *bufio.Writer
	activeBytes int64
	nextLSN     uint64
	dirSynced   bool
	barrier     uint64 // records with LSN >= barrier survive TruncateThrough (0 = none)

	// frame is Append's scratch for a frame's length, type and checksum,
	// so an append allocates nothing.
	frame [binary.MaxVarintLen64 + 1 + 4]byte
}

type segmentInfo struct {
	path     string
	firstLSN uint64
}

func segmentName(firstLSN uint64) string {
	return fmt.Sprintf("%s%0*x%s", segPrefix, lsnHexWidth, firstLSN, segSuffix)
}

func parseSegmentName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hexPart) != lsnHexWidth {
		return 0, false
	}
	v, err := strconv.ParseUint(hexPart, 16, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// listSegments returns the segment files in dir sorted by firstLSN.
func listSegments(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if first, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, segmentInfo{path: filepath.Join(dir, e.Name()), firstLSN: first})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	for i := 1; i < len(segs); i++ {
		if segs[i].firstLSN <= segs[i-1].firstLSN {
			return nil, fmt.Errorf("%w: duplicate segment lsn %d", ErrCorrupt, segs[i].firstLSN)
		}
	}
	return segs, nil
}

// Open opens (creating if necessary) the log in dir, scans existing
// segments, truncates a torn tail in the last segment, and positions
// the log for appending.
func Open(dir string, opts Options) (*Log, error) {
	opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opts: opts, segs: segs, nextLSN: 1}

	// Validate all but the last segment strictly; scan the last one with
	// torn-tail tolerance to find the append position.
	for i, seg := range segs {
		last := i == len(segs)-1
		end, tailOK, err := scanSegment(seg, func(Record) error { return nil })
		if err != nil {
			return nil, err
		}
		if !tailOK && !last {
			return nil, fmt.Errorf("%w: damaged frame in non-last segment %s", ErrCorrupt, seg.path)
		}
		l.nextLSN = end
		if last && !tailOK {
			off, err := segmentPrefixLen(seg, end)
			if err != nil {
				return nil, err
			}
			if err := os.Truncate(seg.path, off); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.path, err)
			}
		}
	}

	if len(segs) == 0 {
		if err := l.startSegment(1); err != nil {
			return nil, err
		}
		return l, nil
	}
	// Re-open the last segment for appending.
	lastSeg := segs[len(segs)-1]
	f, err := os.OpenFile(lastSeg.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	l.active = f
	l.bw = bufio.NewWriter(f)
	l.activeBytes = st.Size()
	return l, nil
}

// startSegment creates a fresh segment whose first record will carry
// firstLSN. Caller holds l.mu (or is the constructor).
func (l *Log) startSegment(firstLSN uint64) error {
	path := filepath.Join(l.dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [headerSize]byte
	copy(hdr[:4], segMagic[:])
	hdr[4] = version
	binary.LittleEndian.PutUint64(hdr[5:13], firstLSN)
	binary.LittleEndian.PutUint32(hdr[13:], crc32.ChecksumIEEE(hdr[:13]))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.bw = bufio.NewWriter(f)
	l.activeBytes = headerSize
	l.segs = append(l.segs, segmentInfo{path: path, firstLSN: firstLSN})
	// Make the new directory entry durable once; cheap insurance that a
	// crash cannot lose a whole synced segment.
	if !l.dirSynced {
		if d, err := os.Open(l.dir); err == nil {
			d.Sync()
			d.Close()
		}
		l.dirSynced = true
	}
	return nil
}

// Append writes one record and returns its LSN. Under SyncAlways the
// record is durable when Append returns.
func (l *Log) Append(t Type, data []byte) (uint64, error) {
	if len(data) > maxPayload {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds limit %d", len(data), maxPayload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.activeBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	lsn := l.nextLSN

	n := binary.PutUvarint(l.frame[:], uint64(len(data)))
	l.frame[n] = byte(t)
	head := l.frame[:n+1]
	crc := l.frame[n+1 : n+5]
	binary.LittleEndian.PutUint32(crc, crc32.Update(crc32.Update(0, crc32.IEEETable, head[n:]), crc32.IEEETable, data))

	if _, err := l.bw.Write(head); err != nil {
		return 0, err
	}
	if _, err := l.bw.Write(data); err != nil {
		return 0, err
	}
	if _, err := l.bw.Write(crc); err != nil {
		return 0, err
	}
	l.activeBytes += int64(n) + 1 + int64(len(data)) + 4
	l.nextLSN++

	if l.opts.Sync == SyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// rotateLocked seals the active segment and starts a new one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	return l.startSegment(l.nextLSN)
}

func (l *Log) syncLocked() error {
	if err := l.bw.Flush(); err != nil {
		return err
	}
	return l.active.Sync()
}

// Sync flushes buffered appends and forces them to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.syncLocked()
}

// Close syncs and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if err := l.bw.Flush(); err != nil {
		l.active.Close()
		return err
	}
	if err := l.active.Sync(); err != nil {
		l.active.Close()
		return err
	}
	return l.active.Close()
}

// NextLSN returns the LSN the next append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Start returns the LSN the log starts at once TruncateThrough(lsn) has
// run, barrier aside; Start(0) is where it starts now.
func (l *Log) Start(lsn uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.segs[l.keptFromLocked(lsn)].firstLSN
}

// keptFromLocked is the index of the oldest segment TruncateThrough(lsn)
// keeps: the first whose last record is > lsn, or the active one.
func (l *Log) keptFromLocked(lsn uint64) int {
	i := 0
	for i < len(l.segs)-1 && l.segs[i+1].firstLSN-1 <= lsn {
		i++
	}
	return i
}

// Segments returns the number of live segment files.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs)
}

// TruncateThrough removes whole segments all of whose records have
// LSN ≤ lsn. The active segment is never removed, and a barrier set
// with SetBarrier caps how far truncation reaches: records with
// LSN ≥ barrier always survive. Use after a checkpoint (or, for a
// replication log, the fleet's minimum applied LSN) has made the
// prefix redundant.
func (l *Log) TruncateThrough(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.barrier > 0 && lsn >= l.barrier {
		lsn = l.barrier - 1
	}
	keepFrom := l.keptFromLocked(lsn)
	for i, seg := range l.segs[:keepFrom] {
		if err := os.Remove(seg.path); err != nil {
			l.segs = append([]segmentInfo(nil), l.segs[i:]...)
			return err
		}
	}
	l.segs = append([]segmentInfo(nil), l.segs[keepFrom:]...)
	return nil
}

// Rotate seals the active segment and starts a new one regardless of
// size. Exposed so checkpoints can cut the log at a known boundary:
// rotate, checkpoint, then TruncateThrough(checkpointLSN-1).
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.segs[len(l.segs)-1].firstLSN == l.nextLSN {
		// The active segment is empty: the log is already cut at nextLSN,
		// and a new segment would take the active one's name.
		return nil
	}
	return l.rotateLocked()
}

// SetBarrier establishes a truncation barrier: records with LSN ≥ lsn
// survive every later TruncateThrough, whatever its argument. A
// replication log sets it to the fleet's minimum applied LSN + 1 so a
// lagging replica's catch-up suffix can never be reclaimed under it.
// 0 removes the barrier.
func (l *Log) SetBarrier(lsn uint64) {
	l.mu.Lock()
	l.barrier = lsn
	l.mu.Unlock()
}

// Barrier returns the current truncation barrier (0 = none).
func (l *Log) Barrier() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.barrier
}

// ReadFrom invokes fn, in LSN order, for every record with LSN ≥ from
// up to the log head captured when the call started, and returns that
// head. It is safe to run concurrently with appends: buffered writes
// are flushed first, records past the captured head are not delivered
// (a frame a concurrent append is still writing is never surfaced),
// and segments below a truncation barrier cannot vanish mid-read.
//
// Unlike Replay's torn-tail tolerance, every record up to the captured
// head was acknowledged, so damage anywhere in that range — including
// an externally truncated tail — is reported as ErrCorrupt, never
// silently skipped: a replication catch-up must fail cleanly rather
// than hand a replica a torn prefix it would mistake for the full
// stream. A from below the retained log start is ErrTruncated.
func (l *Log) ReadFrom(from uint64, fn func(Record) error) (head uint64, err error) {
	return l.ReadThrough(from, ^uint64(0), fn)
}

// ReadThrough is ReadFrom bounded above: it delivers the records with
// from ≤ LSN ≤ min(through, head) and returns the head captured when
// the call started. A replicated log uses it for committed-prefix
// reads — streaming exactly the quorum-acknowledged range while later,
// possibly still-uncommitted, appends stay invisible to the reader.
// The same ErrCorrupt and ErrTruncated contract as ReadFrom applies to
// the requested range.
func (l *Log) ReadThrough(from, through uint64, fn func(Record) error) (head uint64, err error) {
	if from == 0 {
		from = 1
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if err := l.bw.Flush(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	segs := append([]segmentInfo(nil), l.segs...)
	head = l.nextLSN - 1
	l.mu.Unlock()

	upper := head
	if through < upper {
		upper = through
	}
	if from > upper {
		return head, nil
	}
	if len(segs) == 0 {
		return head, fmt.Errorf("%w: no segment holds lsn %d", ErrCorrupt, from)
	}
	if from < segs[0].firstLSN {
		return head, fmt.Errorf("%w: lsn %d, the log starts at lsn %d", ErrTruncated, from, segs[0].firstLSN)
	}
	delivered := from - 1 // highest LSN handed to fn so far
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].firstLSN <= from {
			continue // whole segment below the requested range
		}
		if seg.firstLSN > upper {
			break
		}
		_, tailOK, scanErr := scanSegment(seg, func(r Record) error {
			if r.LSN < from {
				return nil
			}
			if r.LSN > upper {
				return errStop
			}
			delivered = r.LSN
			return fn(r)
		})
		if scanErr != nil {
			if errors.Is(scanErr, errStop) {
				return head, nil
			}
			return head, scanErr
		}
		if !tailOK && delivered < upper {
			return head, fmt.Errorf("%w: torn frame at lsn %d before acknowledged head %d in %s",
				ErrCorrupt, delivered+1, head, seg.path)
		}
		if delivered >= upper {
			return head, nil
		}
	}
	if delivered < upper {
		return head, fmt.Errorf("%w: log ends at lsn %d before acknowledged head %d", ErrCorrupt, delivered, head)
	}
	return head, nil
}

// TruncateFrom discards every record with LSN ≥ lsn — the suffix
// truncation a replicated consensus log needs for conflict resolution:
// a follower whose un-acknowledged tail disagrees with the elected
// leader's log discards the conflicting suffix before accepting the
// leader's records. After it returns, the next Append receives exactly
// lsn. Truncating at or beyond the current head is a no-op.
//
// The truncation barrier does not apply: it guards the committed
// prefix against reclamation from below, while TruncateFrom is a
// deliberate rewrite of the (by protocol, never-committed) suffix —
// the caller owns the proof that every discarded record was
// unacknowledged.
func (l *Log) TruncateFrom(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if lsn == 0 {
		return fmt.Errorf("wal: cannot truncate from lsn 0")
	}
	if lsn >= l.nextLSN {
		return nil
	}
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.active, l.bw = nil, nil
	// Drop whole segments past the cut, last to first, so a crash
	// mid-surgery leaves a contiguous (if still-too-long) log.
	keep := -1 // index of the segment holding lsn-1, -1 when none survives
	for i, seg := range l.segs {
		if seg.firstLSN <= lsn-1 {
			keep = i
		}
	}
	for i := len(l.segs) - 1; i > keep; i-- {
		if err := os.Remove(l.segs[i].path); err != nil {
			return err
		}
		l.segs = l.segs[:i]
	}
	l.nextLSN = lsn
	if keep < 0 {
		// Nothing retained below the cut (or the prefix was already
		// reclaimed past it): restart the log at lsn.
		return l.startSegment(lsn)
	}
	seg := l.segs[keep]
	if off, err := segmentPrefixLen(seg, lsn); err != nil {
		return err
	} else if err := os.Truncate(seg.path, off); err != nil {
		return fmt.Errorf("wal: truncating %s: %w", seg.path, err)
	}
	f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.active = f
	l.bw = bufio.NewWriter(f)
	l.activeBytes = st.Size()
	return nil
}

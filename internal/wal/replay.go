package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Replay reads the log in dir in LSN order, invoking fn for every
// intact record. A torn or corrupt tail in the last segment ends the
// replay silently (those records were never acknowledged under
// SyncAlways, or were acknowledged-but-lost under SyncManual — the
// contract the caller chose). Damage anywhere else returns ErrCorrupt.
// It returns the LSN the next append would receive.
//
// Replay does not modify the log and may run on a live directory copy;
// to both replay and append, use Open (which truncates the torn tail)
// followed by the caller's own state reconstruction.
func Replay(dir string, fn func(Record) error) (nextLSN uint64, err error) {
	segs, err := listSegments(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 1, nil
		}
		return 0, err
	}
	nextLSN = 1
	for i, seg := range segs {
		end, tailOK, err := scanSegment(seg, fn)
		if err != nil {
			return 0, err
		}
		if !tailOK && i != len(segs)-1 {
			return 0, fmt.Errorf("%w: damaged frame in non-last segment %s", ErrCorrupt, seg.path)
		}
		nextLSN = end
	}
	return nextLSN, nil
}

// errStop is an internal sentinel used by scanners that want to halt
// early without signalling an error.
var errStop = errors.New("wal: stop scan")

// scanSegment validates seg's header and streams its records into fn.
// It returns the LSN after the last intact record and whether the
// segment ended cleanly (tailOK == false means a truncated or
// CRC-damaged final frame was found; everything before it was
// delivered). Errors from fn abort the scan and are returned verbatim.
func scanSegment(seg segmentInfo, fn func(Record) error) (endLSN uint64, tailOK bool, err error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, false, err
	}
	cr := &countingReader{r: f}
	br := bufio.NewReaderSize(cr, 1<<16)

	if err := checkHeader(br, seg); err != nil {
		return 0, false, err
	}

	lsn := seg.firstLSN
	var payload []byte
	for {
		rec, ok, err := readFrame(br, &payload, st.Size()-cr.n+int64(br.Buffered()))
		if err != nil {
			return 0, false, err
		}
		if !ok {
			return lsn, false, nil
		}
		if rec == nil { // clean EOF
			return lsn, true, nil
		}
		rec.LSN = lsn
		if err := fn(*rec); err != nil {
			return 0, false, err
		}
		lsn++
	}
}

func checkHeader(br *bufio.Reader, seg segmentInfo) error {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: short header in %s", ErrCorrupt, seg.path)
	}
	if [4]byte(hdr[:4]) != segMagic {
		return fmt.Errorf("%w: bad magic in %s", ErrCorrupt, seg.path)
	}
	// The checksum comes before the version: a damaged version byte is
	// corruption, and only an intact header can name another version.
	if binary.LittleEndian.Uint32(hdr[13:]) != crc32.ChecksumIEEE(hdr[:13]) {
		return fmt.Errorf("%w: header checksum mismatch in %s", ErrCorrupt, seg.path)
	}
	if hdr[4] != version {
		return fmt.Errorf("wal: unsupported version %d in %s", hdr[4], seg.path)
	}
	if binary.LittleEndian.Uint64(hdr[5:13]) != seg.firstLSN {
		return fmt.Errorf("%w: header lsn disagrees with filename in %s", ErrCorrupt, seg.path)
	}
	return nil
}

// readFrame decodes one frame from the next left bytes of the segment.
// Return conventions:
//   - (rec, true, nil): an intact frame.
//   - (nil, true, nil): clean EOF at a frame boundary.
//   - (nil, false, nil): torn/corrupt frame (incomplete bytes, a length
//     past the segment's end, or CRC mismatch) — the caller decides
//     whether that is tolerable.
//
// *payload is reused across calls to avoid per-frame allocation; a
// damaged length is caught against left before anything is allocated
// for it.
func readFrame(br *bufio.Reader, payload *[]byte, left int64) (*Record, bool, error) {
	// A frame boundary is the only place clean EOF can occur.
	if _, err := br.Peek(1); err == io.EOF {
		return nil, true, nil
	}
	size, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, false, nil // partial length varint: torn
	}
	if size > maxPayload || int64(size)+1+4 > left {
		return nil, false, nil // absurd length, or more than the file holds: damage
	}
	need := int(size) + 1 + 4 // type + payload + crc
	if cap(*payload) < need {
		*payload = make([]byte, need)
	}
	buf := (*payload)[:need]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, false, nil // short frame: torn
	}
	body, crcBytes := buf[:1+size], buf[1+size:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, false, nil
	}
	return &Record{Type: Type(body[0]), Data: body[1:]}, true, nil
}

// segmentPrefixLen returns the byte offset in seg just after record
// endLSN-1, i.e. the length of the intact prefix holding records
// [firstLSN, endLSN). Used by Open to truncate a torn tail.
func segmentPrefixLen(seg segmentInfo, endLSN uint64) (int64, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	cr := &countingReader{r: f}
	br := bufio.NewReaderSize(cr, 1<<16)

	if err := checkHeader(br, seg); err != nil {
		return 0, err
	}
	good := int64(headerSize)
	lsn := seg.firstLSN
	var payload []byte
	for lsn < endLSN {
		rec, ok, err := readFrame(br, &payload, st.Size()-good)
		if err != nil || !ok || rec == nil {
			return 0, fmt.Errorf("%w: segment %s shrank during recovery", ErrCorrupt, seg.path)
		}
		good = cr.n - int64(br.Buffered())
		lsn++
	}
	return good, nil
}

// countingReader counts bytes handed to the downstream reader.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

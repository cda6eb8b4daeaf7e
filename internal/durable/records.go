package durable

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Log record payload encodings. Strings are uvarint-length-prefixed;
// floats are IEEE-754 bits little-endian. Record framing, checksums and
// ordering are the log layer's job; these payloads only need to be
// self-describing enough to replay. The codec is exported because the
// fleet replication log (internal/fleet) appends and replays the same
// record types.

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func readString(buf []byte) (string, []byte, error) {
	n, used := binary.Uvarint(buf)
	if used <= 0 {
		return "", nil, fmt.Errorf("durable: bad string length prefix")
	}
	buf = buf[used:]
	if uint64(len(buf)) < n {
		return "", nil, fmt.Errorf("durable: string length %d exceeds remaining %d bytes", n, len(buf))
	}
	return string(buf[:n]), buf[n:], nil
}

func EncodeBefriend(a, b string, weight float64) []byte {
	buf := make([]byte, 0, len(a)+len(b)+2+8)
	buf = appendString(buf, a)
	buf = appendString(buf, b)
	var wb [8]byte
	binary.LittleEndian.PutUint64(wb[:], math.Float64bits(weight))
	return append(buf, wb[:]...)
}

func DecodeBefriend(buf []byte) (a, b string, weight float64, err error) {
	a, buf, err = readString(buf)
	if err != nil {
		return "", "", 0, err
	}
	b, buf, err = readString(buf)
	if err != nil {
		return "", "", 0, err
	}
	if len(buf) != 8 {
		return "", "", 0, fmt.Errorf("durable: befriend record has %d trailing bytes, want 8", len(buf))
	}
	weight = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	if weight <= 0 || weight > 1 || math.IsNaN(weight) {
		return "", "", 0, fmt.Errorf("durable: befriend record weight %g outside (0,1]", weight)
	}
	return a, b, weight, nil
}

// stamp prefixes a record payload with the fleet replication log LSN
// it was stamped with: the RecBefriendAt and RecTagAt forms. One record
// carries both so the mutation and its cursor advance are crash-atomic
// — two separate appends could tear between them and double-apply a
// non-idempotent mutation on replay.
func stamp(lsn uint64, payload []byte) []byte {
	return append(binary.AppendUvarint(make([]byte, 0, 10+len(payload)), lsn), payload...)
}

// unstamp splits a stamped payload into its LSN and the plain payload.
func unstamp(buf []byte) (uint64, []byte, error) {
	lsn, used := binary.Uvarint(buf)
	if used <= 0 || lsn == 0 {
		return 0, nil, fmt.Errorf("durable: bad lsn in stamped record")
	}
	return lsn, buf[used:], nil
}

func EncodeTag(user, item, tag string) []byte {
	buf := make([]byte, 0, len(user)+len(item)+len(tag)+3)
	buf = appendString(buf, user)
	buf = appendString(buf, item)
	return appendString(buf, tag)
}

// EncodeTerm encodes a RecTerm leadership-change record: the new term
// and the id of the leader elected for it.
func EncodeTerm(term uint64, leader string) []byte {
	buf := make([]byte, 0, 10+len(leader)+1)
	buf = binary.AppendUvarint(buf, term)
	return appendString(buf, leader)
}

// DecodeTerm decodes a RecTerm record payload.
func DecodeTerm(buf []byte) (term uint64, leader string, err error) {
	term, used := binary.Uvarint(buf)
	if used <= 0 {
		return 0, "", fmt.Errorf("durable: bad term varint in term record")
	}
	leader, buf, err = readString(buf[used:])
	if err != nil {
		return 0, "", err
	}
	if len(buf) != 0 {
		return 0, "", fmt.Errorf("durable: term record has %d trailing bytes", len(buf))
	}
	return term, leader, nil
}

func DecodeTag(buf []byte) (user, item, tag string, err error) {
	user, buf, err = readString(buf)
	if err != nil {
		return "", "", "", err
	}
	item, buf, err = readString(buf)
	if err != nil {
		return "", "", "", err
	}
	tag, buf, err = readString(buf)
	if err != nil {
		return "", "", "", err
	}
	if len(buf) != 0 {
		return "", "", "", fmt.Errorf("durable: tag record has %d trailing bytes", len(buf))
	}
	return user, item, tag, nil
}

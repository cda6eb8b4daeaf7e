// Package obs is the serving stack's observability plane: W3C
// traceparent-style request tracing with pooled, sampling-gated spans;
// an in-process flight recorder (a fixed-size ring of completed
// traces, head-sampled plus tail-captured slow/shed/error requests); a
// slow-query log that keeps the engine's Explain payload for offending
// queries; a Prometheus text-format exposition writer over the existing
// stats structs; structured (text or JSON) logging; and build/runtime
// identification.
//
// The package is engineered around the repo's allocation discipline:
// when no trace rides the context — tracing disabled, or the request
// not sampled — every tracing call is a nil-safe no-op that performs
// zero heap allocations, so the warm cached read path keeps its
// 0 allocs/op guarantee. Span storage is pooled and recycled when a
// trace leaves the flight recorder's export path.
//
// Identifiers follow the W3C trace-context shape (a 16-byte trace id,
// 8-byte span ids, a sampled flag) carried in the "traceparent"
// header:
//
//	traceparent: 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01
//
// Only version 00 and the sampled flag are implemented — enough to
// stitch one request's spans across the front-end, the quorum
// transport and the replica fleet, while staying dependency-free.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
)

// TraceID identifies one end-to-end request across processes.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// Id generation: a per-process random base mixed with an atomic
// counter through splitmix64. Collision resistance across a small
// fleet is what matters here, not unpredictability, and the counter
// keeps generation to one atomic add on the hot path.
var (
	idBase    [2]uint64
	idCounter atomic.Uint64
)

func init() {
	var seed [16]byte
	if _, err := rand.Read(seed[:]); err == nil {
		idBase[0] = binary.LittleEndian.Uint64(seed[0:8])
		idBase[1] = binary.LittleEndian.Uint64(seed[8:16])
	} else {
		// No entropy source: ids stay unique within the process, which
		// is all the flight recorder itself needs.
		idBase[0], idBase[1] = 0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9
	}
}

// splitmix64 is the SplitMix64 output function: a cheap bijective
// mixer whose consecutive-counter outputs look independent.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewTraceID mints a process-unique, fleet-collision-resistant trace
// id (never zero).
func NewTraceID() TraceID {
	n := idCounter.Add(1)
	var t TraceID
	binary.BigEndian.PutUint64(t[0:8], splitmix64(idBase[0]^n))
	binary.BigEndian.PutUint64(t[8:16], splitmix64(idBase[1]+n))
	if t.IsZero() {
		t[0] = 1
	}
	return t
}

// NewSpanID mints a span id (never zero).
func NewSpanID() SpanID {
	n := idCounter.Add(1)
	var s SpanID
	binary.BigEndian.PutUint64(s[:], splitmix64(idBase[1]^(n<<1)))
	if s.IsZero() {
		s[0] = 1
	}
	return s
}

// TraceparentHeader is the propagation header name (lower-case, the
// W3C spelling; net/http canonicalizes on the wire either way).
const TraceparentHeader = "traceparent"

// FormatTraceparent renders the header value: version 00, the trace
// id, the caller's current span id, and flag 01 when sampled.
func FormatTraceparent(t TraceID, s SpanID, sampled bool) string {
	buf := make([]byte, 0, 55)
	buf = append(buf, '0', '0', '-')
	buf = hex.AppendEncode(buf, t[:])
	buf = append(buf, '-')
	buf = hex.AppendEncode(buf, s[:])
	if sampled {
		buf = append(buf, '-', '0', '1')
	} else {
		buf = append(buf, '-', '0', '0')
	}
	return string(buf)
}

// ParseTraceparent reads a traceparent header value. ok reports a
// well-formed version-00 header with a non-zero trace id; sampled is
// bit 0 of the flags octet. Malformed or foreign-version headers are
// ignored (ok=false) — the receiver then mints a fresh trace, which is
// the W3C-prescribed recovery.
func ParseTraceparent(h string) (t TraceID, parent SpanID, sampled, ok bool) {
	// 00-<32 hex>-<16 hex>-<2 hex>
	if len(h) != 55 || h[0] != '0' || h[1] != '0' || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(t[:], []byte(h[3:35])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if _, err := hex.Decode(parent[:], []byte(h[36:52])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(h[53:55])); err != nil {
		return TraceID{}, SpanID{}, false, false
	}
	if t.IsZero() {
		return TraceID{}, SpanID{}, false, false
	}
	return t, parent, flags[0]&1 != 0, true
}

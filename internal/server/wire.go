package server

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/search"
)

// The /v2 search messages — the queries a fleet front-end sends and
// the answers a replica returns — cross the fleet hop on every read,
// so they have a hand-written JSON codec instead of encoding/json's
// reflection. Its contract:
//
//   - The Append functions emit exactly the bytes encoding/json emits
//     for the same value (json.Encoder's trailing newline included for
//     the two responses, none for the two requests, as json.Marshal),
//     and fail where it fails: a NaN or infinite float. The rare
//     sub-values, explain and spans, are handed to json.Marshal.
//   - The Decode functions accept only input json.Unmarshal accepts,
//     and produce the value it produces. They skip unknown keys, so a
//     newer replica can add a field, and reject what would need
//     encoding/json's looser rules to match: a repeated key, or one
//     that differs from a field name only in case.
//
// FuzzSearchWire holds the codec to both halves against encoding/json.
// Request decoding on the server stays with encoding/json: its
// strictness (unknown fields, trailing values) is part of the API.

// maxPooledBytes caps what a pooled buffer may hold when it goes back
// to its pool, so that one huge answer does not pin its memory.
const maxPooledBytes = 64 << 10

// AppendSearchResponse appends r as json.Encoder encodes it.
func AppendSearchResponse(dst []byte, r *V2SearchResponse) ([]byte, error) {
	dst, err := appendResults(append(dst, `{"results":`...), r.Results)
	if err != nil {
		return dst, err
	}
	if r.Explain != nil {
		if dst, err = appendMarshal(append(dst, `,"explain":`...), r.Explain); err != nil {
			return dst, err
		}
	}
	return appendSpansClose(dst, r.Spans)
}

// AppendBatchResponse appends r as json.Encoder encodes it.
func AppendBatchResponse(dst []byte, r *V2BatchResponse) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if r.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = appendBatchEntry(dst, &r.Results[i]); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return appendSpansClose(dst, r.Spans)
}

// appendSpansClose ends a response: its spans, if any, and the closing
// brace with json.Encoder's newline.
func appendSpansClose(dst []byte, spans []obs.SpanData) ([]byte, error) {
	if len(spans) > 0 {
		var err error
		if dst, err = appendMarshal(append(dst, `,"spans":`...), spans); err != nil {
			return dst, err
		}
	}
	return append(dst, "}\n"...), nil
}

func appendBatchEntry(dst []byte, e *V2BatchEntry) ([]byte, error) {
	dst, err := appendResults(append(dst, `{"results":`...), e.Results)
	if err != nil {
		return dst, err
	}
	if e.Explain != nil {
		if dst, err = appendMarshal(append(dst, `,"explain":`...), e.Explain); err != nil {
			return dst, err
		}
	}
	if e.Error != "" {
		dst = appendString(append(dst, `,"error":`...), e.Error)
	}
	if e.ErrorKind != "" {
		dst = appendString(append(dst, `,"error_kind":`...), e.ErrorKind)
	}
	if e.RetryAfterMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"retry_after_ms":`...), e.RetryAfterMS, 10)
	}
	return append(dst, '}'), nil
}

func appendResults(dst []byte, rs []search.Result) ([]byte, error) {
	if rs == nil {
		return append(dst, "null"...), nil
	}
	dst = append(dst, '[')
	for i := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"item":`...), rs[i].Item)
		var err error
		if dst, err = appendFloat(append(dst, `,"score":`...), rs[i].Score); err != nil {
			return dst, err
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// AppendQuery appends q as json.Marshal encodes it.
func AppendQuery(dst []byte, q *V2Query) ([]byte, error) {
	dst = appendString(append(dst, `{"seeker":`...), q.Seeker)
	dst = append(dst, `,"tags":`...)
	if q.Tags == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, t := range q.Tags {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, t)
		}
		dst = append(dst, ']')
	}
	dst = strconv.AppendInt(append(dst, `,"k":`...), int64(q.K), 10)
	var err error
	if q.Beta != nil {
		if dst, err = appendFloat(append(dst, `,"beta":`...), *q.Beta); err != nil {
			return dst, err
		}
	}
	if q.Mode != "" {
		dst = appendString(append(dst, `,"mode":`...), q.Mode)
	}
	if q.MinScore != 0 {
		if dst, err = appendFloat(append(dst, `,"min_score":`...), q.MinScore); err != nil {
			return dst, err
		}
	}
	if q.Offset != 0 {
		dst = strconv.AppendInt(append(dst, `,"offset":`...), int64(q.Offset), 10)
	}
	if q.NoCache {
		dst = append(dst, `,"no_cache":true`...)
	}
	if q.MaxCacheAgeMS != 0 {
		dst = strconv.AppendInt(append(dst, `,"max_cache_age_ms":`...), q.MaxCacheAgeMS, 10)
	}
	if q.Explain {
		dst = append(dst, `,"explain":true`...)
	}
	return append(dst, '}'), nil
}

// AppendBatchRequest appends r as json.Marshal encodes it.
func AppendBatchRequest(dst []byte, r *V2BatchRequest) ([]byte, error) {
	dst = append(dst, `{"queries":`...)
	if r.Queries == nil {
		return append(dst, "null}"...), nil
	}
	dst = append(dst, '[')
	for i := range r.Queries {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendQuery(dst, &r.Queries[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}"...), nil
}

// appendMarshal appends v's json.Marshal encoding.
func appendMarshal(dst []byte, v interface{}) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

// appendFloat is encoding/json's float64 encoding: the shortest
// representation in 'f' format, or in 'e' format below 1e-6 and from
// 1e21 on with a one-digit exponent written without its leading zero.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString is encoding/json's string encoding with HTML escaping,
// its default: '<', '>' and '&' become \u003c, \u003e and \u0026,
// control bytes take the short form where JSON has one (\b \f \n \r
// \t) and \u00XX otherwise, each invalid UTF-8 byte becomes \ufffd,
// and U+2028 and U+2029 are escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// DecodeSearchResponse parses a /v2/search answer into r, which it
// zeroes first.
func DecodeSearchResponse(data []byte, r *V2SearchResponse) error {
	d := newWireDecoder(data)
	defer d.release()
	*r = V2SearchResponse{}
	haveResults := false
	err := d.topLevel(func(key string) error {
		switch key {
		case "results":
			haveResults = true
			return d.resultList()
		case "explain":
			return d.delegate(&r.Explain)
		default:
			return d.delegate(&r.Spans)
		}
	}, "results", "explain", "spans")
	if err != nil {
		return err
	}
	if haveResults {
		r.Results = make([]search.Result, len(d.results))
		copy(r.Results, d.results)
	}
	return nil
}

// DecodeBatchResponse parses a /v2/search/batch answer into r, which
// it zeroes first. Every entry's results share one backing array, each
// capped at its own length.
func DecodeBatchResponse(data []byte, r *V2BatchResponse) error {
	d := newWireDecoder(data)
	defer d.release()
	*r = V2BatchResponse{}
	haveResults := false
	err := d.topLevel(func(key string) error {
		if key == "results" {
			haveResults = true
			return d.entryList()
		}
		return d.delegate(&r.Spans)
	}, "results", "spans")
	if err != nil || !haveResults {
		return err
	}
	backing := make([]search.Result, len(d.results))
	copy(backing, d.results)
	r.Results = make([]V2BatchEntry, len(d.entries))
	copy(r.Results, d.entries)
	for i, rr := range d.ranges {
		if rr.n >= 0 {
			r.Results[i].Results = backing[rr.lo : rr.lo+rr.n : rr.lo+rr.n]
		}
	}
	return nil
}

// maxSkipDepth bounds the nesting of a skipped value, well inside
// encoding/json's own limit.
const maxSkipDepth = 512

// wireDecoder is one pass over an answer. The body is copied once into
// s, so an item string is a substring of it unless it needs
// unescaping; results and entries gather in scratch that is copied out
// at its exact size, and the decoder is pooled with its scratch.
type wireDecoder struct {
	s       string
	i       int
	results []search.Result
	entries []V2BatchEntry
	ranges  []resultRange // entries[j]'s results are results[lo:lo+n]; n < 0: nil
}

type resultRange struct{ lo, n int }

var wireDecoders = sync.Pool{New: func() interface{} { return new(wireDecoder) }}

func newWireDecoder(data []byte) *wireDecoder {
	d := wireDecoders.Get().(*wireDecoder)
	d.s, d.i = string(data), 0
	return d
}

// release clears the scratch, which holds substrings of the body, and
// pools the decoder unless its scratch outgrew maxPooledBytes.
func (d *wireDecoder) release() {
	clear(d.results)
	clear(d.entries)
	d.results, d.entries, d.ranges = d.results[:0], d.entries[:0], d.ranges[:0]
	d.s = ""
	if cap(d.results)*int(unsafe.Sizeof(search.Result{})) <= maxPooledBytes &&
		cap(d.entries)*int(unsafe.Sizeof(V2BatchEntry{})) <= maxPooledBytes {
		wireDecoders.Put(d)
	}
}

func (d *wireDecoder) fail(what string) error {
	return fmt.Errorf("server: malformed answer at byte %d: %s", d.i, what)
}

func (d *wireDecoder) ws() {
	for d.i < len(d.s) {
		if c := d.s[d.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return
		}
		d.i++
	}
}

// peek returns the next non-space byte, 0 at the end.
func (d *wireDecoder) peek() byte {
	d.ws()
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

// null consumes a null literal if one is next.
func (d *wireDecoder) null() bool {
	if d.peek() == 'n' && strings.HasPrefix(d.s[d.i:], "null") {
		d.i += 4
		return true
	}
	return false
}

// topLevel parses the one object the body holds and nothing after it.
func (d *wireDecoder) topLevel(field func(key string) error, known ...string) error {
	if err := d.object(field, known...); err != nil {
		return err
	}
	if d.ws(); d.i < len(d.s) {
		return d.fail("data after the answer")
	}
	return nil
}

// object parses an object, handing each known key's value to field
// and skipping the values of unknown keys. A null value is consumed
// here: every field starts at its zero value and appears at most once,
// so null, which encoding/json decodes as "leave it" or "set it to
// nil", leaves it zero.
func (d *wireDecoder) object(field func(key string) error, known ...string) error {
	if err := d.open('{'); err != nil {
		return err
	}
	var seen uint32
	for first := true; ; first = false {
		key, more, err := d.member(first)
		if err != nil || !more {
			return err
		}
		k := indexOf(known, key)
		if k < 0 {
			if err := d.unknown(key, known); err != nil {
				return err
			}
			continue
		}
		if seen&(1<<k) != 0 {
			return d.fail("repeated key " + strconv.Quote(key))
		}
		seen |= 1 << k
		if d.null() {
			continue
		}
		if err := field(key); err != nil {
			return err
		}
	}
}

func indexOf(known []string, key string) int {
	for k, name := range known {
		if key == name {
			return k
		}
	}
	return -1
}

// unknown skips an unknown key's value. encoding/json matches a key to
// a field case-insensitively, with Unicode folding; such keys are
// refused, and so is any non-ASCII key.
func (d *wireDecoder) unknown(key string, known []string) error {
	for i := 0; i < len(key); i++ {
		if key[i] >= utf8.RuneSelf {
			return d.fail("non-ASCII key")
		}
	}
	for _, name := range known {
		if strings.EqualFold(key, name) {
			return d.fail("key " + strconv.Quote(key) + " differs from " + name + " in case")
		}
	}
	return d.skip(0)
}

// member starts the next member of an object: false at its closing
// brace, else the key, with the colon consumed.
func (d *wireDecoder) member(first bool) (string, bool, error) {
	switch c := d.peek(); {
	case c == '}' && first:
		d.i++
		return "", false, nil
	case first:
	case c == ',':
		d.i++
	case c == '}':
		d.i++
		return "", false, nil
	default:
		return "", false, d.fail("want , or }")
	}
	key, err := d.str()
	if err != nil {
		return "", false, err
	}
	if d.peek() != ':' {
		return "", false, d.fail("want :")
	}
	d.i++
	return key, true, nil
}

// elem starts the next element of an array: false at its closing
// bracket.
func (d *wireDecoder) elem(first bool) (bool, error) {
	switch c := d.peek(); {
	case c == ']' && first:
		d.i++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.i++
		return true, nil
	case c == ']':
		d.i++
		return false, nil
	default:
		return false, d.fail("want , or ]")
	}
}

func (d *wireDecoder) open(c byte) error {
	if d.peek() != c {
		return d.fail("want " + string(c))
	}
	d.i++
	return nil
}

// resultList appends an array of results to d.results.
func (d *wireDecoder) resultList() error {
	if err := d.open('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := d.elem(first)
		if err != nil || !more {
			return err
		}
		var r search.Result
		if !d.null() {
			err := d.object(func(key string) error {
				var err error
				if key == "item" {
					r.Item, err = d.str()
				} else {
					r.Score, err = d.float()
				}
				return err
			}, "item", "score")
			if err != nil {
				return err
			}
		}
		d.results = append(d.results, r)
	}
}

// entryList appends an array of batch entries to d.entries.
func (d *wireDecoder) entryList() error {
	if err := d.open('['); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := d.elem(first)
		if err != nil || !more {
			return err
		}
		var e V2BatchEntry
		rr := resultRange{n: -1}
		if !d.null() {
			err := d.object(func(key string) error {
				var err error
				switch key {
				case "explain":
					e.Explain, err = d.explain()
				case "results":
					rr.lo = len(d.results)
					err = d.resultList()
					rr.n = len(d.results) - rr.lo
				case "error":
					e.Error, err = d.str()
				case "error_kind":
					e.ErrorKind, err = d.str()
				case "retry_after_ms":
					e.RetryAfterMS, err = d.int64()
				}
				return err
			}, "results", "explain", "error", "error_kind", "retry_after_ms")
			if err != nil {
				return err
			}
		}
		d.entries = append(d.entries, e)
		d.ranges = append(d.ranges, rr)
	}
}

// delegate decodes a rare sub-value (explain, spans) with
// encoding/json.
func (d *wireDecoder) delegate(v interface{}) error {
	d.ws()
	start := d.i
	if err := d.skip(0); err != nil {
		return err
	}
	return json.Unmarshal([]byte(d.s[start:d.i]), v)
}

// explain decodes an entry's explain; its own variable keeps the
// entry it lands in from escaping to the heap.
func (d *wireDecoder) explain() (*search.Explain, error) {
	var ex *search.Explain
	err := d.delegate(&ex)
	return ex, err
}

// str parses a string. One with no escape and valid UTF-8 is returned
// as a substring of the body; any other is unquoted by encoding/json,
// which knows the rest (surrogates, invalid UTF-8 becoming U+FFFD).
func (d *wireDecoder) str() (string, error) {
	start := d.i
	plain, err := d.skipString()
	if err != nil {
		return "", err
	}
	if plain {
		return d.s[start+1 : d.i-1], nil
	}
	var v string
	err = json.Unmarshal([]byte(d.s[start:d.i]), &v)
	return v, err
}

// skipString moves past a string, reporting whether its bytes are its
// value.
func (d *wireDecoder) skipString() (plain bool, err error) {
	if d.peek() != '"' {
		return false, d.fail("want a string")
	}
	plain = true
	for j := d.i + 1; j < len(d.s); {
		c := d.s[j]
		if !stringSpecial[c] {
			j++
			continue
		}
		switch {
		case c == '"':
			d.i = j + 1
			return plain, nil
		case c == '\\':
			plain = false
			if j+1 >= len(d.s) {
				j++
				continue
			}
			switch d.s[j+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				j += 2
			case 'u':
				if j+6 > len(d.s) || !isHex4(d.s[j+2:j+6]) {
					d.i = j
					return false, d.fail("bad \\u escape")
				}
				j += 6
			default:
				d.i = j
				return false, d.fail("bad escape")
			}
		case c < 0x20:
			d.i = j
			return false, d.fail("control byte in string")
		default:
			r, size := utf8.DecodeRuneInString(d.s[j:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			j += size
		}
	}
	d.i = len(d.s)
	return false, d.fail("unterminated string")
}

// stringSpecial marks the bytes skipString must look at: the quote,
// the backslash, control bytes and the start of any multi-byte rune.
var stringSpecial = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf
	}
	return t
}()

func isHex4(s string) bool {
	for i := 0; i < 4; i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// number moves past a number literal, as JSON's grammar has it, and
// returns it.
func (d *wireDecoder) number() (string, error) {
	d.ws()
	s, start := d.s, d.i
	j := start
	if j < len(s) && s[j] == '-' {
		j++
	}
	if j < len(s) && s[j] == '0' {
		j++
	} else if j = digits(s, j); j < 0 {
		return "", d.fail("want a number")
	}
	if j < len(s) && s[j] == '.' {
		if j = digits(s, j+1); j < 0 {
			return "", d.fail("want a fraction")
		}
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if j = digits(s, j); j < 0 {
			return "", d.fail("want an exponent")
		}
	}
	d.i = j
	return s[start:j], nil
}

// digits returns the end of the run of digits at s[j:], -1 if there is
// none.
func digits(s string, j int) int {
	k := j
	for k < len(s) && '0' <= s[k] && s[k] <= '9' {
		k++
	}
	if k == j {
		return -1
	}
	return k
}

// float parses a number as encoding/json parses it into a float64:
// out of range is an error.
func (d *wireDecoder) float() (float64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	f, err := strconv.ParseFloat(lit, 64)
	if err != nil {
		return 0, d.fail("number " + lit + " out of range")
	}
	return f, nil
}

// int64 parses a number as encoding/json parses it into an int64: an
// integer literal in range.
func (d *wireDecoder) int64() (int64, error) {
	lit, err := d.number()
	if err != nil {
		return 0, err
	}
	n, err := strconv.ParseInt(lit, 10, 64)
	if err != nil {
		return 0, d.fail("number " + lit + " is not an int64")
	}
	return n, nil
}

// skip moves past any one value, checking its syntax.
func (d *wireDecoder) skip(depth int) error {
	if depth > maxSkipDepth {
		return d.fail("nested too deep")
	}
	switch c := d.peek(); c {
	case '{':
		d.i++
		for first := true; ; first = false {
			_, more, err := d.member(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case '[':
		d.i++
		for first := true; ; first = false {
			more, err := d.elem(first)
			if err != nil || !more {
				return err
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
		}
	case '"':
		_, err := d.skipString()
		return err
	case 't', 'f', 'n':
		for _, lit := range [...]string{"true", "false", "null"} {
			if strings.HasPrefix(d.s[d.i:], lit) {
				d.i += len(lit)
				return nil
			}
		}
		return d.fail("bad literal")
	default:
		_, err := d.number()
		return err
	}
}

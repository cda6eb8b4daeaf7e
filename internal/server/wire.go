package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
	"unsafe"

	"repro/internal/search"
)

// The /v2 search answers a replica returns cross the fleet hop on
// every read, so they have a hand-written JSON encoder instead of
// encoding/json's reflection: the Append functions emit exactly the
// bytes json.Encoder emits for the same value, trailing newline
// included, and fail where it fails: a NaN or infinite float. The rare
// sub-value, explain, is handed to json.Marshal. FuzzSearchWire holds
// them to encoding/json.
//
// The server reads the two search request bodies in one pass or with
// encoding/json (searchBody.decode): a body in the shape json.Marshal
// writes for a query that sets no option but k and mode is read in one
// pass, with every string a substring of the body's one copy; any other
// body goes whole to encoding/json, whose strictness (unknown fields,
// trailing values, the 400 texts) is part of the API.
// FuzzSearchRequestWire holds the reader to encoding/json, and
// FuzzSearchBodyReuse holds a reused pooled target (searchBody) to a
// fresh decode.
//
// A front-end decodes no answer: a replica gets the body the client
// sent, or for a batch its queries' own JSON, and its answer goes back
// as the replica wrote it, a batch's entries split out by
// SplitBatchAnswer. FuzzBatchSplice holds the splice to encoding/json.

// maxPooledBytes caps what a pooled buffer or decode target may hold
// when it goes back to its pool, so that one huge answer or request
// does not pin its memory.
const maxPooledBytes = 64 << 10

// AppendSearchResponse appends r as json.Encoder encodes it.
func AppendSearchResponse(dst []byte, r *V2SearchResponse) ([]byte, error) {
	dst, err := appendAnswer(dst, r.Results, r.Explain)
	if err != nil {
		return dst, err
	}
	return append(dst, "}\n"...), nil
}

// AppendBatchResponse appends r as json.Encoder encodes it.
func AppendBatchResponse(dst []byte, r *V2BatchResponse) ([]byte, error) {
	return appendBatchResponse(dst, r, nil)
}

// appendBatchResponse is AppendBatchResponse with entry i written as
// raw[i] where that is not nil: a replica's entry, passed on verbatim.
func appendBatchResponse(dst []byte, r *V2BatchResponse, raw [][]byte) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if r.Results == nil {
		return append(dst, "null}\n"...), nil
	}
	dst = append(dst, '[')
	for i := range r.Results {
		if i > 0 {
			dst = append(dst, ',')
		}
		if raw != nil && raw[i] != nil {
			dst = append(dst, raw[i]...)
			continue
		}
		var err error
		if dst, err = appendBatchEntry(dst, &r.Results[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, "]}\n"...), nil
}

func appendBatchEntry(dst []byte, e *V2BatchEntry) ([]byte, error) {
	dst, err := appendAnswer(dst, e.Results, e.Explain)
	if err != nil {
		return dst, err
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

// appendAnswer opens an answer or a batch entry and appends the fields
// the two share: the results and, when set, the explain.
func appendAnswer(dst []byte, rs []search.Result, ex *search.Explain) ([]byte, error) {
	dst, err := appendResults(append(dst, `{"results":`...), rs)
	if err != nil || ex == nil {
		return dst, err
	}
	return appendMarshal(append(dst, `,"explain":`...), ex)
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

// searchBody is a pooled decode target for the /v2 search request
// bodies. It keeps its query array and every query's tag array across
// requests, so a decode fills arrays it already has: the one pass
// (readQuery, readBatch) appends into them, and encoding/json decodes
// an array into the slice it finds, growing it only past its capacity.
//
// A decode leaves exactly the value and error a fresh decodeBody
// into a zero value leaves. json decodes an object into the struct it
// finds, setting only the fields the object names, so every query slot
// is zeroed, but for its kept tag array, before json decodes into it;
// and a kept array json never touched is set back to the nil a fresh
// decode leaves (json's own empty array has capacity 0).
//
// The decoded value aliases the target and the body's one string copy
// until release: a handler, or anything it calls, that keeps a string
// of it past the request copies the string (strings.Clone), or the
// whole body stays pinned.
type searchBody struct {
	batch   V2BatchRequest
	query   V2Query
	queries []V2Query  // batch.Queries' array, kept across uses
	tags    [][]string // tags[i]: query i's Tags array, kept across uses
	// raw is the body's one string copy, and texts[i] batch query i's
	// JSON in it when the one pass read the batch (empty otherwise, its
	// array kept across uses): what a front-end forwards.
	raw   string
	texts []string
}

var searchBodies = sync.Pool{New: func() interface{} { return new(searchBody) }}

func newSearchBody() *searchBody { return searchBodies.Get().(*searchBody) }

// decode reads a /v2/search body into b.query, or a /v2/search/batch
// body into b.batch. The body is read to its end and copied once into
// a string; a body in json.Marshal's shape for the request type is
// read from it in one pass, every string a substring of the copy. Any
// other body, and one whose read failed, goes whole to encoding/json,
// which reads the bytes read and then the read error, as decodeBody
// would have read them from the request.
func (b *searchBody) decode(w http.ResponseWriter, r *http.Request, batch bool) error {
	return ReadBody(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength, func(data []byte, err error) error {
		b.texts = b.texts[:0]
		if err == nil {
			d := wireDecoder{s: string(data)}
			b.raw = d.s
			if batch && b.readBatch(&d) || !batch && b.readQuery(&d) {
				return nil
			}
			b.texts = b.texts[:0]
		}
		var rd io.Reader = bytes.NewReader(data)
		if err != nil {
			rd = io.MultiReader(rd, errReader{err})
		}
		if !batch {
			b.query = V2Query{Tags: b.tagArray(0)}
			err = decodeJSON(rd, &b.query)
			b.settle(0, &b.query.Tags)
			return err
		}
		qs := b.queries[:cap(b.queries)]
		for i := range qs {
			qs[i] = V2Query{Tags: b.tagArray(i)}
		}
		b.batch.Queries = b.queries[:0]
		err = decodeJSON(rd, &b.batch)
		b.keepQueries()
		return err
	})
}

// errReader fails every read with err.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// readQuery reads a whole /v2/search body in one pass into b.query.
func (b *searchBody) readQuery(d *wireDecoder) bool {
	q, ok := d.query(b.tagArray(0))
	if !ok || d.i != len(d.s) {
		return false
	}
	b.query = q
	b.settle(0, &b.query.Tags)
	return true
}

// readBatch reads a whole /v2/search/batch body in one pass into
// b.batch, and each query's text into b.texts: {"queries":[…]} of at
// least one query.
func (b *searchBody) readBatch(d *wireDecoder) bool {
	if !d.lit(`{"queries":[`) {
		return false
	}
	qs := b.queries[:0]
	for {
		start := d.i
		q, ok := d.query(b.tagArray(len(qs)))
		if !ok {
			return false
		}
		qs = append(qs, q)
		b.texts = append(b.texts, d.s[start:d.i])
		if d.lit("]}") {
			break
		}
		if !d.lit(",") {
			return false
		}
	}
	if d.i != len(d.s) {
		return false
	}
	b.batch.Queries = qs
	b.keepQueries()
	return true
}

// keepQueries keeps the query and tag arrays the decode into b.batch
// grew, and sets untouched kept arrays back to nil.
func (b *searchBody) keepQueries() {
	if cap(b.batch.Queries) > cap(b.queries) {
		b.queries = b.batch.Queries[:0]
	}
	for i := range b.batch.Queries {
		b.settle(i, &b.batch.Queries[i].Tags)
	}
	b.batch.Queries = untouched(b.batch.Queries)
}

// tagArray returns query i's kept tag array, empty.
func (b *searchBody) tagArray(i int) []string {
	if i < len(b.tags) {
		return b.tags[i][:0]
	}
	return nil
}

// settle keeps the array query i's tags were decoded into, if it grew
// one, and sets an untouched kept array back to nil.
func (b *searchBody) settle(i int, tags *[]string) {
	if cap(*tags) > cap(b.tagArray(i)) {
		for len(b.tags) <= i {
			b.tags = append(b.tags, nil)
		}
		b.tags[i] = (*tags)[:0]
	}
	*tags = untouched(*tags)
}

// untouched returns nil for a kept array json left empty, where a fresh
// decode leaves the field nil, and s otherwise.
func untouched[T any](s []T) []T {
	if len(s) == 0 && cap(s) > 0 {
		return nil
	}
	return s
}

// release pools b once reset has zeroed it, unless it grew too big.
func (b *searchBody) release() {
	if b.reset() {
		searchBodies.Put(b)
	}
}

// reset zeroes the target, whose strings must not be pinned by a
// pooled value, and reports whether it is small enough to pool: no
// query's tag array past search.MaxTags, the whole within
// maxPooledBytes.
func (b *searchBody) reset() bool {
	size := cap(b.queries)*int(unsafe.Sizeof(V2Query{})) + cap(b.tags)*int(unsafe.Sizeof([]string(nil))) +
		cap(b.texts)*int(unsafe.Sizeof(""))
	small := true
	for _, tg := range b.tags {
		clear(tg[:cap(tg)])
		size += cap(tg) * int(unsafe.Sizeof(""))
		small = small && cap(tg) <= search.MaxTags
	}
	clear(b.queries[:cap(b.queries)])
	clear(b.texts[:cap(b.texts)])
	b.batch, b.query, b.raw, b.texts = V2BatchRequest{}, V2Query{}, "", b.texts[:0]
	return small && size <= maxPooledBytes
}

// bodyBufs pools the buffers ReadBody reads into.
var bodyBufs = sync.Pool{New: func() interface{} { return new([]byte) }}

// ReadBody reads r to its end into a pooled buffer, grown once to size
// when the length is declared and no larger than MaxBodyBytes, and
// hands use the bytes read and the read error: nil at EOF. The buffer
// goes back to the pool when use returns, unless it outgrew
// maxPooledBytes, so use must not keep the bytes.
func ReadBody(r io.Reader, size int64, use func(body []byte, err error) error) error {
	bp := bodyBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	if size > 0 && size <= MaxBodyBytes {
		buf = slices.Grow(buf, int(size)+1)
	}
	var err error
	for err == nil {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		var n int
		n, err = r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
	}
	if err == io.EOF {
		err = nil
	}
	err = use(buf, err)
	if cap(buf) <= maxPooledBytes {
		*bp = buf
		bodyBufs.Put(bp)
	}
	return err
}

// wireDecoder is one pass over a search request body in its writer's
// shape. The body is copied once into s, so every string read is a
// substring of it.
type wireDecoder struct {
	s string
	i int
}

// lit consumes p if the input continues with it.
func (d *wireDecoder) lit(p string) bool {
	if strings.HasPrefix(d.s[d.i:], p) {
		d.i += len(p)
		return true
	}
	return false
}

// str reads a string whose bytes are its value: no escape, no control
// byte, valid UTF-8.
func (d *wireDecoder) str() (string, bool) {
	if !d.lit(`"`) {
		return "", false
	}
	for j := d.i; j < len(d.s); j++ {
		switch c := d.s[j]; {
		case c == '"':
			v := d.s[d.i:j]
			d.i = j + 1
			return v, utf8.ValidString(v)
		case c < 0x20 || c == '\\':
			return "", false
		}
	}
	return "", false
}

// query reads one /v2 search query in the shape json.Marshal writes
// for a V2Query that sets no option but k and mode, appending its tags
// to tags: {"seeker":S,"tags":[S,…],"k":N,"mode":S}, with k and mode
// optional and at least one tag.
func (d *wireDecoder) query(tags []string) (q V2Query, ok bool) {
	if !d.lit(`{"seeker":`) {
		return q, false
	}
	if q.Seeker, ok = d.str(); !ok || !d.lit(`,"tags":[`) {
		return q, false
	}
	for {
		t, ok := d.str()
		if !ok {
			return q, false
		}
		tags = append(tags, t)
		if d.lit("]") {
			break
		}
		if !d.lit(",") {
			return q, false
		}
	}
	q.Tags = tags
	if d.lit(`,"k":`) {
		if q.K, ok = d.int(); !ok {
			return q, false
		}
	}
	if d.lit(`,"mode":`) {
		if q.Mode, ok = d.str(); !ok {
			return q, false
		}
	}
	return q, d.lit("}")
}

// int reads a non-negative integer with no leading zero that fits an
// int.
func (d *wireDecoder) int() (int, bool) {
	j := digits(d.s, d.i)
	if j < 0 || d.s[d.i] == '0' && j > d.i+1 {
		return 0, false
	}
	n, err := strconv.Atoi(d.s[d.i:j])
	d.i = j
	return n, err == nil
}

// digits returns the end of the run of digits at s[j:], -1 if there is
// none.
func digits[T string | []byte](s T, j int) int {
	k := j
	for k < len(s) && '0' <= s[k] && s[k] <= '9' {
		k++
	}
	if k == j {
		return -1
	}
	return k
}

// SplitBatchAnswer splits a replica's /v2/search/batch answer into its
// entries without re-encoding them, storing entry j, verbatim, at
// entries[positions[j]]. The answer must hold exactly len(positions)
// entries, each a JSON object that decodes as a V2BatchEntry; on any
// other it leaves nil at those positions and returns an error. Entry
// j's decoded error fields come back at failed[j] where it is an error
// entry (failed is nil when none is), so the caller still reads the
// error's class: an unavailable entry fails over, and a batch whose
// every entry failed is a failure to admission.
//
// A plain answer, the encoder's shape for entries that hold results
// only, is split in one pass that decodes nothing (splitPlain); any
// other — an error entry, explain, escaped strings, other spacing —
// goes to encoding/json, its entries read as json.RawMessage.
func SplitBatchAnswer(answer []byte, positions []int, entries [][]byte) (failed []V2BatchEntry, err error) {
	if splitPlain(answer, positions, entries) {
		return nil, nil
	}
	var resp struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(answer, &resp); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(positions) {
		return nil, fmt.Errorf("%d answers for %d queries", len(resp.Results), len(positions))
	}
	for j, raw := range resp.Results {
		var e V2BatchEntry
		if err := json.Unmarshal(raw, &e); err != nil || raw[0] != '{' {
			for _, p := range positions {
				entries[p] = nil
			}
			return nil, fmt.Errorf("entry %d is no batch entry", j)
		}
		if e.Error != "" {
			if failed == nil {
				failed = make([]V2BatchEntry, len(positions))
			}
			failed[j] = e
		}
		entries[positions[j]] = raw
	}
	return failed, nil
}

// plainResults opens a plain answer, and each entry of a plain batch
// answer.
const plainResults = `{"results":[`

// splitPlain is SplitBatchAnswer's one pass. It takes only a plain
// answer: {"results":[E,…]} and json.Encoder's newline, exactly
// len(positions) entries, each E {"results":[I,…]} and each item I
// {"item":S,"score":N}, S a JSON string and N a JSON number that fits a
// float64. On any other answer it leaves nil at the positions and
// reports false.
func splitPlain(answer []byte, positions []int, entries [][]byte) bool {
	a := answerScan{b: answer}
	ok := a.lit(plainResults)
	for j := 0; ok && j < len(positions); j++ {
		if j > 0 && !a.lit(",") {
			ok = false
			break
		}
		start := a.i
		ok = a.lit(plainResults) && a.items() && a.lit("}")
		entries[positions[j]] = answer[start:a.i:a.i]
	}
	if !ok || !a.lit("]}\n") || a.i != len(answer) {
		for _, p := range positions {
			entries[p] = nil
		}
		return false
	}
	return true
}

// answerScan checks a batch answer's entries in one pass over its
// bytes, decoding nothing.
type answerScan struct {
	b []byte
	i int
}

// lit consumes p if the input continues with it.
func (a *answerScan) lit(p string) bool {
	if len(a.b)-a.i >= len(p) && string(a.b[a.i:a.i+len(p)]) == p {
		a.i += len(p)
		return true
	}
	return false
}

// items consumes the rest of a result list, up to its closing bracket.
func (a *answerScan) items() bool {
	if a.lit("]") {
		return true
	}
	for {
		if !a.lit(`{"item":`) || !a.str() || !a.lit(`,"score":`) || !a.num() || !a.lit("}") {
			return false
		}
		if a.lit("]") {
			return true
		}
		if !a.lit(",") {
			return false
		}
	}
}

// str consumes a JSON string: no control byte, every escape one JSON
// has.
func (a *answerScan) str() bool {
	if !a.lit(`"`) {
		return false
	}
	b := a.b
	for i := a.i; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			a.i = i + 1
			return true
		case c < 0x20:
			return false
		case c == '\\':
			if i++; i == len(b) {
				return false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || !isHex4(b[i+1:i+5]) {
					return false
				}
				i += 4
			default:
				return false
			}
		}
	}
	return false
}

func isHex4(h []byte) bool {
	for _, c := range h {
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

// num consumes a JSON number literal that fits a float64. One with
// neither an exponent nor more than 300 integer digits always does;
// only the others are parsed.
func (a *answerScan) num() bool {
	b, j := a.b, a.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	first := j
	if j < len(b) && b[j] == '0' {
		j++
	} else if j = digits(b, j); j < 0 {
		return false
	}
	check := j-first > 300
	if j < len(b) && b[j] == '.' {
		if j = digits(b, j+1); j < 0 {
			return false
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		check = true
		if j++; j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j = digits(b, j); j < 0 {
			return false
		}
	}
	if check {
		if _, err := strconv.ParseFloat(string(b[a.i:j]), 64); err != nil {
			return false
		}
	}
	a.i = j
	return true
}

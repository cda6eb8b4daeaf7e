package server

import (
	"bytes"
	"encoding/json"
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

	"repro/internal/obs"
	"repro/internal/search"
)

// The /v2 search answers a replica returns cross the fleet hop on
// every read, so they have a hand-written JSON codec instead of
// encoding/json's reflection. Its contract:
//
//   - The Append functions emit exactly the bytes json.Encoder emits
//     for the same value, trailing newline included, and fail where it
//     fails: a NaN or infinite float. The rare sub-values, explain and
//     spans, are handed to json.Marshal.
//   - The Decode functions decode exactly as json.Unmarshal decodes:
//     they accept what it accepts and produce the value it produces.
//     They read in one pass only the shape the Append functions write
//     for a plain answer — {"item":S,"score":N} results whose strings
//     need no unescaping, and for a batch, entries holding results only
//     — and hand any other body whole to json.Unmarshal: explain,
//     spans, error entries, escaped strings, other spacing, a missing
//     newline, a field a newer replica adds.
//
// FuzzSearchWire holds both halves to encoding/json. The server reads
// the two search request bodies with the same one-pass-or-json
// contract (searchBody.decode): a body in the shape json.Marshal writes
// for a query that sets no option but k and mode is read in one pass,
// with every string a substring of the body's one copy; any other body
// goes whole to encoding/json, whose strictness (unknown fields,
// trailing values, the 400 texts) is part of the API.
// FuzzSearchRequestWire holds the reader to encoding/json, and
// FuzzSearchBodyReuse holds a reused pooled target (searchBody) to a
// fresh decode.
//
// A front-end's plain queries skip both codecs (the Frontend role's
// bytes path): a replica gets the body the client sent, or for a batch
// its queries' texts the one pass found, and its answer goes back as
// written, a batch's entries split out by SplitBatchAnswer, a scanner
// that decodes nothing. FuzzBatchSplice holds the splice to the decode
// path. The queries a front-end sends on the decode path are
// json.Marshal's.

// maxPooledBytes caps what a pooled buffer or decode target may hold
// when it goes back to its pool, so that one huge answer or request
// does not pin its memory.
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
	return appendBatchResponse(dst, r, nil)
}

// appendBatchResponse is AppendBatchResponse with entry i written as
// raw[i] where that is not nil: a replica's entry, passed on verbatim.
func appendBatchResponse(dst []byte, r *V2BatchResponse, raw [][]byte) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if r.Results == nil {
		dst = append(dst, "null"...)
	} else {
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

// DecodeSearchResponse parses a /v2/search answer into r, which it
// zeroes first, as json.Unmarshal would.
func DecodeSearchResponse(data []byte, r *V2SearchResponse) error {
	*r = V2SearchResponse{}
	d := newWireDecoder(data)
	defer d.release()
	if !d.lit(`{"results":`) || !d.resultList() || !d.end() {
		return json.Unmarshal(data, r)
	}
	r.Results = make([]search.Result, len(d.results))
	copy(r.Results, d.results)
	return nil
}

// DecodeBatchResponse parses a /v2/search/batch answer into r, which
// it zeroes first, as json.Unmarshal would. An answer read in one pass
// shares one backing array among its entries' results, each capped at
// its own length.
func DecodeBatchResponse(data []byte, r *V2BatchResponse) error {
	*r = V2BatchResponse{}
	d := newWireDecoder(data)
	defer d.release()
	if !d.entryList() || !d.end() {
		return json.Unmarshal(data, r)
	}
	backing := make([]search.Result, len(d.results))
	copy(backing, d.results)
	r.Results = make([]V2BatchEntry, len(d.ends))
	lo := 0
	for i, hi := range d.ends {
		r.Results[i].Results = backing[lo:hi:hi]
		lo = hi
	}
	return nil
}

// wireDecoder is one pass over a body in its writer's shape: an answer
// or a search request. The body is copied once into s, so every string
// read is a substring of it. An answer's results gather in scratch that
// is copied out at its exact size, and the decoder is pooled with its
// scratch; a request's pass needs no scratch and runs on the stack.
type wireDecoder struct {
	s       string
	i       int
	results []search.Result
	ends    []int // batch entry j's results end at results[ends[j]]
}

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
	d.results, d.ends, d.s = d.results[:0], d.ends[:0], ""
	if cap(d.results)*int(unsafe.Sizeof(search.Result{}))+cap(d.ends)*int(unsafe.Sizeof(0)) <= maxPooledBytes {
		wireDecoders.Put(d)
	}
}

// lit consumes p if the input continues with it.
func (d *wireDecoder) lit(p string) bool {
	if strings.HasPrefix(d.s[d.i:], p) {
		d.i += len(p)
		return true
	}
	return false
}

// end consumes the closing brace and json.Encoder's newline, which
// must end the body.
func (d *wireDecoder) end() bool { return d.lit("}\n") && d.i == len(d.s) }

// entryList reads a batch answer up to its closing brace: entries that
// hold results only.
func (d *wireDecoder) entryList() bool {
	if !d.lit(`{"results":[`) {
		return false
	}
	if d.lit("]") {
		return true
	}
	for {
		if !d.lit(`{"results":`) || !d.resultList() || !d.lit("}") {
			return false
		}
		d.ends = append(d.ends, len(d.results))
		if d.lit("]") {
			return true
		}
		if !d.lit(",") {
			return false
		}
	}
}

// resultList appends an array of {"item":S,"score":N} to d.results.
func (d *wireDecoder) resultList() bool {
	if !d.lit("[") {
		return false
	}
	if d.lit("]") {
		return true
	}
	for {
		if !d.lit(`{"item":`) {
			return false
		}
		item, ok := d.str()
		if !ok || !d.lit(`,"score":`) {
			return false
		}
		score, ok := d.number()
		if !ok || !d.lit("}") {
			return false
		}
		d.results = append(d.results, search.Result{Item: item, Score: score})
		if d.lit("]") {
			return true
		}
		if !d.lit(",") {
			return false
		}
	}
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

// number reads a JSON number literal as json.Unmarshal reads it into
// a float64.
func (d *wireDecoder) number() (float64, bool) {
	s, j := d.s, d.i
	if j < len(s) && s[j] == '-' {
		j++
	}
	if j < len(s) && s[j] == '0' {
		j++
	} else if j = digits(s, j); j < 0 {
		return 0, false
	}
	if j < len(s) && s[j] == '.' {
		if j = digits(s, j+1); j < 0 {
			return 0, false
		}
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if j = digits(s, j); j < 0 {
			return 0, false
		}
	}
	f, err := strconv.ParseFloat(s[d.i:j], 64)
	d.i = j
	return f, err == nil
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

// plainResults opens a plain answer, and each entry of a plain batch
// answer.
const plainResults = `{"results":[`

// SplitBatchAnswer splits a replica's /v2/search/batch answer into its
// entries without decoding them, storing entry j, verbatim, at
// entries[positions[j]]. It takes only a plain answer: {"results":[E,…]}
// and json.Encoder's newline, exactly len(positions) entries, each E
// {"results":[I,…]} and each item I {"item":S,"score":N}, S a JSON
// string and N a JSON number that fits a float64. A JSON decoder reads
// those entries as DecodeBatchResponse reads the answer. On any other
// answer (an error entry, null results, explain, spans, other spacing)
// it leaves nil at those positions and reports false.
//
// An entry goes on as the replica wrote it: where that is not the
// encoder's bytes (a score written 1.50), the entry holds the same
// value, not the same bytes, as the decode path's.
func SplitBatchAnswer(answer []byte, positions []int, entries [][]byte) bool {
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

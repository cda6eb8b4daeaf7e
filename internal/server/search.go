package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"time"
	"unsafe"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/search"
)

// forceExplain turns on Explain for a sampled traced query the client
// did not ask to explain, so the trace and the slow-query log capture
// the engine's decision record. The caller strips the payload from the
// response when the client did not request it (noteSlowQuery does both
// jobs), keeping client-visible bytes independent of sampling.
func (s *Server) forceExplain(ctx context.Context, req *search.Request) {
	if s.tracer != nil && !req.Explain && obs.CurrentSpan(ctx) != nil {
		req.Explain = true
	}
}

// noteSlowQuery feeds the slow-query log when the query crossed the
// tracer's slow threshold, annotates the current span with the explain
// decision record, and strips a force-injected Explain payload off the
// response.
func (s *Server) noteSlowQuery(ctx context.Context, req search.Request, resp *search.Response, dur time.Duration) {
	if s.tracer == nil {
		return
	}
	if ex := resp.Explain; ex != nil {
		if sp := obs.CurrentSpan(ctx); sp != nil {
			sp.SetAttr("algorithm", ex.Algorithm)
			sp.SetInt("horizon_users", int64(ex.HorizonUsers))
			sp.SetBool("cache_hit", ex.CacheHit)
		}
	}
	if th := s.tracer.SlowThreshold(); th > 0 && dur >= th {
		// The record outlives the request, whose strings may alias its
		// body (see searchBody): keep copies.
		tags := slices.Clone(req.Tags)
		for i := range tags {
			tags[i] = strings.Clone(tags[i])
		}
		s.tracer.RecordSlow(obs.SlowQuery{
			Time:       time.Now().Add(-dur),
			TraceID:    obs.RequestFromContext(ctx).TraceID(),
			Seeker:     strings.Clone(req.Seeker),
			Tags:       tags,
			K:          req.K,
			Mode:       req.Mode.String(),
			DurationMS: float64(dur) / float64(time.Millisecond),
			Explain:    resp.Explain,
		})
	}
}

// decodeBatchEnvelope decodes a batch request body into b.batch and
// bounds-checks the query count. It reports whether the envelope was
// accepted; on rejection the 400 response has already been written.
func (s *Server) decodeBatchEnvelope(w http.ResponseWriter, r *http.Request, b *searchBody) bool {
	if err := b.decode(w, r, true); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return false
	}
	n := len(b.batch.Queries)
	if n == 0 {
		s.writeErr(w, http.StatusBadRequest, errors.New("batch holds no queries"))
		return false
	}
	if n > MaxBatchQueries {
		s.writeErr(w, http.StatusBadRequest,
			fmt.Errorf("batch holds %d queries, limit is %d", n, MaxBatchQueries))
		return false
	}
	return true
}

// runBatch is handleSearchBatchV2's execution: the queries that passed
// validation (errs[i] == nil) run through do as one backend batch under
// one admission ticket — the batch is one unit of admitted work — and
// come back by input position (entry i is zero where errs[i] is set).
// do gets the runnable queries and their input positions. The backend
// is skipped entirely when nothing survived validation (a durable
// backend folds pending writes even for an empty batch). ok is false
// when admission refused the batch; the response is written then.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, reqs []search.Request, errs []error,
	do func(runnable []search.Request, positions []int) []search.BatchResult) ([]search.BatchResult, bool) {
	runnable := make([]search.Request, 0, len(reqs))
	positions := make([]int, 0, len(reqs))
	var out []search.BatchResult
	for i := range reqs {
		if errs[i] == nil {
			runnable = append(runnable, reqs[i])
			positions = append(positions, i)
		}
	}
	if len(runnable) > 0 {
		tk, ok := s.admit(w, r, admission.Read)
		if !ok {
			return nil, false
		}
		out = do(runnable, positions)
		tk.Release(batchOutcome(out))
	}
	if len(out) == len(reqs) {
		return out, true // every query ran: positions are the identity
	}
	byPos := make([]search.BatchResult, len(reqs))
	for j, br := range out {
		byPos[positions[j]] = br
	}
	return byPos, true
}

// V2Query is the wire form of one search.Request. The server only
// decodes it; omitempty serves the fleet client, which encodes it.
type V2Query struct {
	Seeker        string   `json:"seeker"`
	Tags          []string `json:"tags"`
	K             int      `json:"k"`
	Beta          *float64 `json:"beta,omitempty"`
	Mode          string   `json:"mode,omitempty"`
	MinScore      float64  `json:"min_score,omitempty"`
	Offset        int      `json:"offset,omitempty"`
	NoCache       bool     `json:"no_cache,omitempty"`
	MaxCacheAgeMS int64    `json:"max_cache_age_ms,omitempty"`
	Explain       bool     `json:"explain,omitempty"`
}

// request converts the wire query to a search.Request (mode parse
// errors surface as ErrInvalid, like every other validation failure).
func (q V2Query) request() (search.Request, error) {
	mode, err := search.ParseMode(q.Mode)
	if err != nil {
		return search.Request{}, err
	}
	return search.Request{
		Seeker:        q.Seeker,
		Tags:          q.Tags,
		K:             q.K,
		Beta:          q.Beta,
		Mode:          mode,
		MinScore:      q.MinScore,
		Offset:        q.Offset,
		NoCache:       q.NoCache,
		MaxCacheAgeMS: q.MaxCacheAgeMS,
		Explain:       q.Explain,
	}, nil
}

// V2SearchResponse is the /v2/search response body.
type V2SearchResponse struct {
	Results []search.Result `json:"results"`
	Explain *search.Explain `json:"explain,omitempty"`
}

func (s *Server) handleSearchV2(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	body := newSearchBody()
	defer body.release()
	if err := body.decode(w, r, false); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	req, err := body.query.request()
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	tk, ok := s.admit(w, r, admission.Read)
	if !ok {
		return
	}
	if s.frontend != nil {
		s.forwardSearch(w, r, tk, req, body.raw)
		return
	}
	wantExplain := req.Explain
	s.forceExplain(r.Context(), &req)
	start := time.Now()
	resp, err := s.backend.Do(r.Context(), req)
	tk.Release(err)
	if err != nil {
		s.writeErr(w, searchErrStatus(err), err)
		return
	}
	// Capture (and on a force-injected Explain, strip) the decision
	// record — client-visible bytes must not depend on sampling.
	s.noteSlowQuery(r.Context(), req, &resp, time.Since(start))
	if !wantExplain {
		resp.Explain = nil
	}
	out := V2SearchResponse{Results: resp.Results, Explain: resp.Explain}
	s.writeBody(w, r, func(dst []byte) ([]byte, error) { return AppendSearchResponse(dst, &out) })
}

// forwardSearch is handleSearchV2 on a front-end: the owning replica
// gets the body as the client sent it, and its answer goes back as it
// came (Frontend.SearchBytes), explain included. Its slow-log record
// carries no explain: on a sampled trace the replica's own spans carry
// the engine's decision (algorithm, cache_hit, horizon_users).
func (s *Server) forwardSearch(w http.ResponseWriter, r *http.Request, tk admission.Ticket, req search.Request, raw string) {
	start := time.Now()
	bp := wireBufs.Get().(*[]byte)
	// The hop only reads the body, so its bytes may alias the string.
	body := unsafe.Slice(unsafe.StringData(raw), len(raw))
	answer, err := s.frontend.SearchBytes(r.Context(), req, body, (*bp)[:0])
	tk.Release(err)
	defer recycleWireBuf(bp, answer)
	if err != nil {
		s.writeErr(w, searchErrStatus(err), err)
		return
	}
	s.noteSlowQuery(r.Context(), req, &search.Response{}, time.Since(start))
	if !s.aborted(w, r) {
		s.writeOK(w, r, answer)
	}
}

// V2BatchRequest is the /v2/search/batch request body.
type V2BatchRequest struct {
	Queries []V2Query `json:"queries"`
}

// V2BatchEntry answers one v2 batch query.
type V2BatchEntry struct {
	Results []search.Result `json:"results"`
	Explain *search.Explain `json:"explain,omitempty"`
	Error   string          `json:"error,omitempty"`
	// ErrorKind carries the error's class across the wire ("invalid",
	// "overloaded", "unavailable"; empty for unclassified failures) so a
	// fleet front-end relaying this entry can reconstruct the typed
	// error — a replica's shed (429) must stay a shed at the front door,
	// never be flattened into a generic failure.
	ErrorKind string `json:"error_kind,omitempty"`
	// RetryAfterMS is the shed entry's backoff hint in milliseconds
	// (only with ErrorKind "overloaded") — the per-entry form of the
	// Retry-After header.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Wire error classes for V2BatchEntry.ErrorKind.
const (
	ErrKindInvalid     = "invalid"
	ErrKindOverloaded  = "overloaded"
	ErrKindUnavailable = "unavailable"
)

// classifyWireErr reduces a per-entry error to its wire class and
// backoff hint.
func classifyWireErr(err error) (kind string, retryAfterMS int64) {
	switch {
	case errors.Is(err, search.ErrInvalid):
		return ErrKindInvalid, 0
	case errors.Is(err, search.ErrOverloaded):
		var oe *search.OverloadError
		if errors.As(err, &oe) {
			retryAfterMS = oe.RetryAfter.Milliseconds()
		}
		return ErrKindOverloaded, retryAfterMS
	case errors.Is(err, search.ErrUnavailable):
		return ErrKindUnavailable, 0
	default:
		return "", 0
	}
}

// batchOutcome reduces a batch's per-entry errors to one admission
// outcome: success if anything succeeded, else the first error — so one
// slow-but-served batch is an ack, not a congestion signal.
func batchOutcome(batch []search.BatchResult) error {
	var firstErr error
	for _, br := range batch {
		if br.Err == nil {
			return nil
		}
		if firstErr == nil {
			firstErr = br.Err
		}
	}
	return firstErr
}

// V2BatchResponse is the /v2/search/batch response body; entry i
// answers query i.
type V2BatchResponse struct {
	Results []V2BatchEntry `json:"results"`
}

func (s *Server) handleSearchBatchV2(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	body := newSearchBody()
	defer body.release()
	if !s.decodeBatchEnvelope(w, r, body) {
		return
	}
	qs := body.batch.Queries
	reqs := make([]search.Request, len(qs))
	errs := make([]error, len(qs))
	for i := range qs {
		reqs[i], errs[i] = qs[i].request()
	}
	do := func(runnable []search.Request, _ []int) []search.BatchResult {
		return s.backend.DoBatch(r.Context(), runnable)
	}
	// On a front-end each query goes to its replica as its own JSON —
	// the one pass's text of it, or json.Marshal's when encoding/json
	// read the body — and entries[i] holds query i's entry as a replica
	// wrote it.
	var entries [][]byte
	if s.frontend != nil {
		texts := body.texts
		if len(texts) == 0 {
			texts = make([]string, len(qs))
			for i := range qs {
				b, err := json.Marshal(&qs[i])
				if err != nil {
					s.writeErr(w, http.StatusInternalServerError, err)
					return
				}
				texts[i] = string(b)
			}
		}
		entries = make([][]byte, len(reqs))
		do = func(runnable []search.Request, positions []int) []search.BatchResult {
			if len(runnable) == len(reqs) {
				return s.frontend.SearchBatchBytes(r.Context(), runnable, texts, entries)
			}
			sub := make([]string, len(positions))
			raw := make([][]byte, len(positions))
			for j, i := range positions {
				sub[j] = texts[i]
			}
			out := s.frontend.SearchBatchBytes(r.Context(), runnable, sub, raw)
			for j, i := range positions {
				entries[i] = raw[j]
			}
			return out
		}
	}
	batch, ok := s.runBatch(w, r, reqs, errs, do)
	if !ok {
		return
	}
	resp := V2BatchResponse{Results: make([]V2BatchEntry, len(reqs))}
	for i, br := range batch {
		switch {
		case errs[i] != nil:
			resp.Results[i] = V2BatchEntry{Error: fmt.Sprintf("query %d: %v", i, errs[i]), ErrorKind: ErrKindInvalid}
		case br.Err != nil:
			kind, retryMS := classifyWireErr(br.Err)
			resp.Results[i] = V2BatchEntry{Error: br.Err.Error(), ErrorKind: kind, RetryAfterMS: retryMS}
		default:
			resp.Results[i] = V2BatchEntry{Results: br.Response.Results, Explain: br.Response.Explain}
		}
	}
	s.writeBody(w, r, func(dst []byte) ([]byte, error) { return appendBatchResponse(dst, &resp, entries) })
}

// Package search defines the versioned request/response surface of the
// social tagging search engine: one canonical Request type carrying
// every per-query knob (result count, social/global blend, execution
// mode, explainability), one Response type carrying results plus an
// optional execution explanation, and the Searcher interface the
// serving layers (internal/social, internal/fleet) implement.
//
// The package is deliberately dependency-free: it is the contract
// between callers (HTTP handlers, CLIs, embedding applications) and
// engines, so validation and normalization policy live here and
// nowhere else. Every implementation calls Request.Normalize exactly
// once, which makes k defaulting, the MaxK cap, tag normalization and
// knob range checks identical across all entry points.
package search

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// Result count policy, applied by Normalize.
const (
	// DefaultK is substituted when a request leaves K zero.
	DefaultK = 10
	// MaxK caps the result count of a single request; larger values are
	// clamped, never rejected, so a greedy client degrades gracefully.
	MaxK = 1000
)

// ErrInvalid tags every validation failure produced by Normalize, so
// transport layers can map the whole class (and nothing else) to a
// client error: errors.Is(err, search.ErrInvalid).
var ErrInvalid = errors.New("invalid search request")

// ErrUnavailable tags failures of the serving substrate rather than of
// the request: a network replica that could not be reached, answered
// with a server error, or was ejected by health checking. Routers
// (internal/fleet) treat the class as failover-eligible — the same
// request may succeed on another replica — and HTTP transports map it
// to 503. Wrap with fmt.Errorf("%w: ...", search.ErrUnavailable, ...)
// so errors.Is(err, search.ErrUnavailable) holds.
var ErrUnavailable = errors.New("search backend unavailable")

// ErrOverloaded tags requests a replica refused because its admission
// controller shed them: the replica is healthy but at capacity, and the
// same request will likely succeed on the SAME replica after a short
// backoff. The class is deliberately distinct from ErrUnavailable —
// routers must NOT fail a shed request over to ring successors (that
// would re-aim the overload at the next replica), and HTTP transports
// map it to 429 with a Retry-After hint. Construct with Overloadedf so
// errors.Is(err, search.ErrOverloaded) holds and the retry hint rides
// along.
var ErrOverloaded = errors.New("search backend overloaded")

// OverloadError is the concrete shed error: it carries the replica's
// suggested retry backoff. Extract with errors.As; errors.Is against
// ErrOverloaded matches the class.
type OverloadError struct {
	// RetryAfter is the replica's backoff suggestion (how long until
	// admission capacity is expected to free up). Zero means "retry
	// whenever"; transports round it up to whole seconds for the
	// Retry-After header.
	RetryAfter time.Duration
	msg        string
}

// Overloadedf builds an OverloadError with the given retry hint.
func Overloadedf(retryAfter time.Duration, format string, args ...interface{}) error {
	return &OverloadError{RetryAfter: retryAfter, msg: fmt.Sprintf(format, args...)}
}

func (e *OverloadError) Error() string {
	if e.msg == "" {
		return ErrOverloaded.Error()
	}
	return ErrOverloaded.Error() + ": " + e.msg
}

// Is makes errors.Is(err, ErrOverloaded) true for the whole class.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

func invalidf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// WrapInvalid marks err as a client-side request error — making
// errors.Is(err, ErrInvalid) true — without changing its message.
// Implementations use it for request-content failures Normalize cannot
// see (unknown names, malformed ids) so
// transports keep a clean client/server error split while legacy error
// texts stay byte-identical.
func WrapInvalid(err error) error {
	if err == nil {
		return nil
	}
	return invalidErr{err}
}

type invalidErr struct{ error }

func (e invalidErr) Is(target error) bool { return target == ErrInvalid }
func (e invalidErr) Unwrap() error        { return e.error }

// Mode selects how a request is executed.
type Mode int

const (
	// ModeAuto is the zero value, so requests that say nothing get it.
	// It runs the same path as ModeExact.
	ModeAuto Mode = iota
	// ModeExact runs the refine path: exact scores, certified answers
	// (equivalent to the ExactSocial oracle when horizons are unbounded).
	ModeExact
	// ModeApprox promises only certified lower-bound scores. It runs the
	// same path as ModeExact, so its answers are exact today; the mode
	// stays on the wire so a cheaper stop can later be given to it alone.
	ModeApprox
)

// String returns the wire spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeExact:
		return "exact"
	case ModeApprox:
		return "approx"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses the wire spelling of a mode; the empty string is
// ModeAuto.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return ModeAuto, nil
	case "exact":
		return ModeExact, nil
	case "approx", "approximate":
		return ModeApprox, nil
	default:
		return ModeAuto, invalidf("unknown mode %q (want auto, exact or approx)", s)
	}
}

// Request is one top-k search request. The zero value of every optional
// field means "use the engine default", so Request{Seeker: s, Tags: t}
// is a complete query.
type Request struct {
	// Seeker is the querying user (required).
	Seeker string
	// Tags are the query tags (required). Normalize splits comma-joined
	// entries, trims whitespace and drops blanks, so both
	// []string{"pizza,italian"} and []string{"pizza", "italian"} work.
	Tags []string
	// K is the requested result count: 0 means DefaultK, negative is
	// invalid, values above MaxK are clamped.
	K int
	// Beta, when non-nil, overrides the engine's social/global blend for
	// this query only (must lie in [0,1]).
	Beta *float64
	// Mode selects auto, exact-score, or approximate execution.
	Mode Mode
	// MinScore drops results scoring strictly below it (0 keeps all).
	MinScore float64
	// Offset skips the first Offset results (simple paging). Capped at
	// MaxK like K itself — implementations fetch K+Offset results, so
	// the cap is what bounds per-request work.
	Offset int
	// NoCache bypasses the seeker-horizon cache for this query: the
	// horizon is materialized fresh and never installed. Useful for
	// one-shot seekers a caller knows will not repeat, and as the
	// ground-truth path when auditing cache consistency.
	NoCache bool
	// MaxCacheAgeMS bounds the age of a cached horizon for this query: a
	// cached horizon older than this many milliseconds is treated as a
	// miss (and re-materialized fresh). 0 accepts any age. Negative is
	// invalid.
	MaxCacheAgeMS int64
	// Explain asks the engine to report how it answered the query.
	Explain bool
}

// Normalize validates the request and canonicalizes it in place: tags
// are split/trimmed, K defaulting and capping applied. It is the single place query admission policy lives;
// every Searcher implementation calls it before executing. All errors
// wrap ErrInvalid.
func (r *Request) Normalize() error {
	if strings.TrimSpace(r.Seeker) == "" {
		return invalidf("missing seeker")
	}
	r.Tags = NormalizeTags(r.Tags)
	if len(r.Tags) == 0 {
		return invalidf("missing tags")
	}
	switch {
	case r.K < 0:
		return invalidf("negative k %d", r.K)
	case r.K == 0:
		r.K = DefaultK
	case r.K > MaxK:
		r.K = MaxK
	}
	if r.Beta != nil && (*r.Beta < 0 || *r.Beta > 1) {
		return invalidf("beta %g outside [0,1]", *r.Beta)
	}
	if r.Mode < ModeAuto || r.Mode > ModeApprox {
		return invalidf("unknown mode %d", int(r.Mode))
	}
	if r.MinScore < 0 {
		return invalidf("negative min score %g", r.MinScore)
	}
	if r.Offset < 0 {
		return invalidf("negative offset %d", r.Offset)
	}
	if r.Offset > MaxK {
		return invalidf("offset %d above cap %d", r.Offset, MaxK)
	}
	if r.MaxCacheAgeMS < 0 {
		return invalidf("negative max cache age %d ms", r.MaxCacheAgeMS)
	}
	return nil
}

// NormalizeTags is the tag normalization every entry point shares:
// comma-joined entries are split, whitespace trimmed, blanks dropped.
// Already-clean input (no commas, no padding, no blanks — the common
// case for programmatic callers) is returned unchanged, so the serving
// hot path pays no allocation here.
func NormalizeTags(chunks []string) []string {
	clean := true
	for _, c := range chunks {
		if c == "" || strings.ContainsRune(c, ',') || strings.TrimSpace(c) != c {
			clean = false
			break
		}
	}
	if clean {
		return chunks
	}
	var tags []string
	for _, chunk := range chunks {
		for _, t := range strings.Split(chunk, ",") {
			if t = strings.TrimSpace(t); t != "" {
				tags = append(tags, t)
			}
		}
	}
	return tags
}

// Window applies the post-execution result policy — MinScore filtering,
// Offset paging, truncation to K — to a score-descending result list.
// Implementations fetch K+Offset results from the engine and shape them
// through this one helper so paging semantics cannot drift apart.
func (r *Request) Window(results []Result) []Result {
	// Results are score-descending, so MinScore cuts a suffix.
	cut := len(results)
	for cut > 0 && results[cut-1].Score < r.MinScore {
		cut--
	}
	results = results[:cut]
	if r.Offset >= len(results) {
		return nil
	}
	results = results[r.Offset:]
	if len(results) > r.K {
		results = results[:r.K]
	}
	return results
}

// Result is one answered item.
type Result struct {
	Item  string  `json:"item"`
	Score float64 `json:"score"`
}

// Explain reports how a query was answered. All counters describe the
// single execution that produced the response.
type Explain struct {
	// Algorithm is the engine algorithm that ran (SocialMerge for every
	// served query).
	Algorithm string `json:"algorithm"`
	// Mode is the execution mode after normalization.
	Mode string `json:"mode"`
	// Beta is the social/global blend the query ran under.
	Beta float64 `json:"beta"`
	// Exact reports whether the answer set is certified exact.
	Exact bool `json:"exact"`
	// ScoreBound is the certified lower bound on the score of the last
	// returned result — the certification threshold τ the engine stopped
	// at (0 when nothing matched).
	ScoreBound float64 `json:"score_bound"`
	// HorizonUsers is the size of the materialized seeker horizon the
	// query consumed (0 when execution did not go through a horizon).
	HorizonUsers int `json:"horizon_users"`
	// HorizonResidual is the proximity bound on users beyond the
	// materialized horizon (0 for a complete horizon).
	HorizonResidual float64 `json:"horizon_residual"`
	// CacheHit reports whether the seeker horizon came from the serving
	// cache; CacheGeneration is the cache generation the horizon is
	// stamped with (both zero when no horizon or no cache was involved).
	CacheHit        bool   `json:"cache_hit"`
	CacheGeneration uint64 `json:"cache_generation"`
	// UsersSettled, SequentialAccesses and RandomAccesses are the
	// engine's hardware-independent cost counters for this execution.
	UsersSettled       int   `json:"users_settled"`
	SequentialAccesses int64 `json:"sequential_accesses"`
	RandomAccesses     int64 `json:"random_accesses"`
}

// Response answers one Request.
type Response struct {
	// Results are the top items, score-descending, already shaped by the
	// request's MinScore/Offset/K window. Never nil on success.
	Results []Result `json:"results"`
	// Explain is present iff the request asked for it.
	Explain *Explain `json:"explain,omitempty"`
}

// BatchResult is the outcome of one request of a DoBatch call: Response
// on success, a non-nil Err otherwise (including ctx.Err() for requests
// a cancelled batch never started). A failed request never fails the
// batch.
type BatchResult struct {
	Response Response
	Err      error
}

// Searcher is the canonical query interface of the engine. Do answers
// one request; DoBatch answers many concurrently, returning outcomes in
// input order with per-request errors. Both honour ctx: cancellation
// aborts in-flight executions at the engine's next checkpoint and fails
// unstarted batch requests with ctx.Err().
type Searcher interface {
	Do(ctx context.Context, req Request) (Response, error)
	DoBatch(ctx context.Context, reqs []Request) []BatchResult
}

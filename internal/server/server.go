// Package server exposes a social tagging service over HTTP/JSON: the
// thin deployment layer a downstream application runs in front of the
// library. Every backend answers queries and plain mutations (Backend);
// beyond that a backend plays one of two explicit roles, resolved once
// in New: Replica (*social.Service, volatile or journaled — the
// replication apply path, snapshots, the cache plane) or Frontend
// (*fleet.Frontend — the replication log, quorum role, elastic resize).
// Endpoints of a role the backend does not play answer 404.
//
// Endpoints (all JSON):
//
//	POST /v1/friend        {"a":"alice","b":"bob","weight":0.9}     → 204
//	POST /v1/tag           {"user":"bob","item":"x","tag":"pizza"}  → 204
//	POST /v2/search        {"seeker":"alice","tags":["pizza"],"k":5,
//	                        "beta":0.7,"mode":"auto",
//	                        "min_score":0,"offset":0,"no_cache":false,
//	                        "max_cache_age_ms":0,"explain":true}
//	                                                                → {"results":[{"item":"x","score":1.2}],"explain":{...}}
//	POST /v2/search/batch  {"queries":[{...v2 query...},...]}       → {"results":[{"results":[...],"explain":{...}},{"error":"..."},...]}
//	POST /v2/apply         {"records":[{"lsn":7,"kind":"befriend","user":"alice","friend":"bob","weight":0.9},
//	                        {"lsn":8,"kind":"tag","user":"bob","item":"x","tag":"pizza"},{"lsn":9}],
//	                        "fold":true}
//	                                                                → {"applied_lsn":9,"rejected":[...]}
//	GET  /v2/replog?from=7                                          → {"from":7,"head":42,"records":[...]}
//	GET  /v2/snapshot                                               → binary snapshot stream pinned at the
//	                                                                  replication cursor (X-Snapshot-LSN)
//	POST /v2/snapshot      binary snapshot stream                   → {"applied_lsn":7} (replaces all state)
//	GET  /v2/cache/seekers                                          → {"seekers":["alice",...]} (resident horizons)
//	POST /v2/cache/warm    {"seekers":["alice",...]}                → {"warmed":N} (pre-warm, admission bypassed)
//	POST /v2/fleet/resize  {"join":["http://host:port"],"retire":[2]}
//	                                                                → {"epoch":4,"joined":[3],"retired":[2]}
//	                                                                  (fleet front-ends only: elastic resize)
//	GET  /v1/users                                                  → {"users":[...]}
//	GET  /v1/stats                                                  → backend counters (wrapped in a
//	                                                                  {"Build","Admission","Trace","Backend"}
//	                                                                  envelope when the obs plane is installed)
//	GET  /metrics                                                   → Prometheus text exposition of the
//	                                                                  same counters
//	GET  /debug/traces[/{id}]                                       → flight-recorder listing / one trace
//	GET  /debug/slowlog                                             → slow-query log with Explain payloads
//	GET  /debug/pprof/                                              → net/http/pprof (only with EnablePprof)
//	GET  /healthz                                                   → 200 "ok" (liveness; X-Applied-LSN
//	                                                                  header on replication-aware backends,
//	                                                                  X-Build-Version/X-Go-Version identity)
//	GET  /readyz                                                    → 200 "ok" | 503 "draining"
//
// Replication (fleet replicas): a log record reaches a replica in one
// form, an entry of a POST /v2/apply page of LSN-consecutive
// social.Mutation records (no "kind": a skip), applied in order with
// idempotent dedup and strict ordering (see handleApply). The last page
// of a stream carries "fold": the replica folds what it applied into
// its queryable snapshot before it answers.
//
// Search has one wire, /v2, which exposes the full search.Request:
// per-query β blending, execution mode (auto, exact and approx all run
// the exact merge today; explain echoes the mode), score filtering,
// offset paging, and explainable answers (algorithm, horizon size,
// seeker-cache hit/generation, certified score bound). A query names
// at most search.MaxTags (64) distinct tags; one over the cap is a 400,
// or an "invalid" entry in a batch. The /v1 routes are the write path
// and the operator surface only.
//
// Batch endpoints execute up to MaxBatchQueries queries on the
// backend's bounded worker pool and report errors per query: the i-th
// entry of "results" answers the i-th query, so one bad query never
// voids the rest of the batch. Malformed envelopes (bad JSON, no
// queries, too many queries, oversized bodies) are rejected with 400
// before anything executes. Backends serve searches through a
// mutation-aware per-seeker horizon cache (see internal/qcache) with
// edge-scoped invalidation: a compacted friendship mutation drops only
// the cached horizons that could contain its endpoints. Hit/miss/
// invalidation/eviction/expiration counters appear under SeekerCache
// in /v1/stats; the v2 per-query knobs "no_cache" and
// "max_cache_age_ms" bypass or age-bound the cache for one query.
//
// Client errors (validation, unknown names, malformed JSON) map to
// 400; wrong methods to 405; a request whose context is cancelled —
// the client hung up — aborts with 499 (the nginx convention); all
// other failures map to 500.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/search"
	"repro/internal/social"
)

// Backend is the query and plain-mutation surface every backend has;
// queries go through the canonical request/response interface (see
// internal/search).
type Backend interface {
	search.Searcher
	Befriend(a, b string, weight float64) error
	Tag(user, item, tag string) error
	Users() []string
}

// MaxBodyBytes bounds a JSON request body: a mutation, a batch query
// envelope, an apply page.
const MaxBodyBytes = 1 << 20

// MaxBatchQueries bounds the number of queries accepted by one
// /v2/search/batch request.
const MaxBatchQueries = 256

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// reported when the client cancelled the request before a response
// could be written.
const StatusClientClosedRequest = 499

// Server is an http.Handler serving the API.
type Server struct {
	backend Backend
	// replica and frontend are the backend in the role it plays (at most
	// one is non-nil), resolved once in New.
	replica  Replica
	frontend Frontend
	mux      *http.ServeMux
	logf     func(format string, args ...interface{})
	// admission, when set, fronts every search (read class) and every
	// /v1 mutation (write class) with the AIMD admission controller: shed
	// requests answer 429 with Retry-After.
	// /v2/apply bypasses admission — the fleet replication apply path
	// must never be shed, or a loaded replica would be ejected as
	// divergent instead of merely slow.
	admission *admission.Controller
	// tracer, when set, fronts every serving request with the obs plane:
	// trace adoption/minting, span collection on sampled requests, tail
	// capture, the flight recorder and the slow-query log. Nil (the
	// default) keeps ServeHTTP a straight mux dispatch with zero tracing
	// overhead.
	tracer *obs.Tracer
	// build, when set, identifies the binary on /healthz headers, the
	// /v1/stats Build block and /metrics.
	build *obs.Build
	// accessLog, when set, receives one structured line per sampled or
	// tail-captured request (never every request — the serving path must
	// not be throttled by its own logging).
	accessLog *obs.Logger
	// ready gates /readyz: true once the backend is loaded (New), false
	// while draining for shutdown. Liveness (/healthz) stays 200 either
	// way — a draining process is alive, just not accepting new work.
	ready atomic.Bool
	// drainDelay is how long ListenAndServe keeps serving after flipping
	// /readyz to 503, so load balancers observe the transition before
	// in-flight shutdown begins.
	drainDelay time.Duration
}

// New builds a server over a backend. The server starts ready: the
// backend a caller hands in is already loaded and queryable.
func New(b Backend) (*Server, error) {
	if b == nil {
		return nil, errors.New("server: nil backend")
	}
	s := &Server{backend: b, mux: http.NewServeMux(), logf: log.Printf}
	s.replica, _ = b.(Replica)
	s.frontend, _ = b.(Frontend)
	s.ready.Store(true)
	s.mux.HandleFunc("/v1/friend", s.handleFriend)
	s.mux.HandleFunc("/v1/tag", s.handleTag)
	s.mux.HandleFunc("/v2/search", s.handleSearchV2)
	s.mux.HandleFunc("/v2/search/batch", s.handleSearchBatchV2)
	s.mux.HandleFunc("/v2/apply", s.handleApply)
	s.mux.HandleFunc("/v2/replog", s.handleReplog)
	s.mux.HandleFunc("/v2/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/v2/cache/seekers", s.handleCacheSeekers)
	s.mux.HandleFunc("/v2/cache/warm", s.handleCacheWarm)
	s.mux.HandleFunc("/v2/fleet/resize", s.handleFleetResize)
	s.mux.HandleFunc("/v1/users", s.handleUsers)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness doubles as the replication lag probe: a fleet prober
		// reads the replica's applied LSN off every health check.
		if s.replica != nil {
			w.Header().Set("X-Applied-LSN", strconv.FormatUint(s.replica.AppliedLSN(), 10))
		}
		// HA front-ends also report their quorum role, so finding the
		// leader is one HEAD request, not a stats parse.
		if s.frontend != nil {
			if role, leader, term := s.frontend.QuorumRole(); role != "" {
				w.Header().Set("X-Quorum-Role", role)
				w.Header().Set("X-Quorum-Leader", leader)
				w.Header().Set("X-Quorum-Term", strconv.FormatUint(term, 10))
			}
		}
		// Build identity rides liveness too, so operators can tell
		// binaries apart during rolling experiments with one HEAD request.
		s.build.SetHeaders(w.Header())
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	return s, nil
}

// SetTracer installs the obs tracing plane (nil disables, the
// default) and mounts its debug endpoints: GET /debug/traces,
// GET /debug/traces/{id} and GET /debug/slowlog. Call before the
// server starts listening.
func (s *Server) SetTracer(t *obs.Tracer) {
	s.tracer = t
	if t != nil {
		s.mux.Handle("/debug/traces", t.TracesHandler())
		s.mux.Handle("/debug/traces/", t.TracesHandler())
		s.mux.Handle("/debug/slowlog", t.SlowLogHandler())
	}
}

// SetBuild installs the binary's build identity: /healthz headers,
// the /v1/stats Build block, and friendserve_build_info on /metrics.
func (s *Server) SetBuild(b *obs.Build) { s.build = b }

// SetAccessLogger installs the structured request logger (one line
// per sampled or tail-captured request; needs a tracer to classify).
func (s *Server) SetAccessLogger(l *obs.Logger) { s.accessLog = l }

// SetLogf replaces the server's internal error logger (log.Printf by
// default) — friendserve points it at the structured logger.
func (s *Server) SetLogf(logf func(format string, args ...interface{})) {
	if logf != nil {
		s.logf = logf
	}
}

// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
// default: profiling endpoints are a diagnosis tool, not part of the
// serving surface). Call before the server starts listening.
func (s *Server) EnablePprof() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// SetAdmission installs an admission controller in front of the search
// and /v1 mutation handlers (nil disables, the default). See the
// admission field for what is and is not gated.
func (s *Server) SetAdmission(c *admission.Controller) { s.admission = c }

// MountQuorum mounts the consensus transport of an HA front-end's
// quorum node under /quorum/ (vote, append, status). Call before the
// server starts listening.
func (s *Server) MountQuorum(h http.Handler) { s.mux.Handle("/quorum/", h) }

// admit acquires an admission ticket for one request, or writes the
// refusal response (429 + Retry-After on shed, 499 when the client's
// context expired while queued) and reports false. With no controller
// installed it admits everything with a zero (no-op) ticket.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, class admission.Class) (admission.Ticket, bool) {
	if s.admission == nil {
		return admission.Ticket{}, true
	}
	ctx, sp := obs.StartSpan(r.Context(), "admission.acquire")
	tk, err := s.admission.Acquire(ctx, class)
	if sp != nil {
		sp.SetBool("shed", err != nil)
		sp.End()
	}
	if err != nil {
		s.writeErr(w, searchErrStatus(err), err)
		return admission.Ticket{}, false
	}
	return tk, true
}

// SetReady flips readiness: /readyz answers 200 while ready, 503 while
// not. ListenAndServe flips it false itself when shutting down;
// embedders can also gate readiness on their own warmup.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// SetDrainDelay sets how long ListenAndServe keeps serving between
// flipping /readyz to 503 and starting the in-flight shutdown.
func (s *Server) SetDrainDelay(d time.Duration) { s.drainDelay = d }

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

// ServeHTTP implements http.Handler. With a tracer installed, serving
// requests run under the obs plane: a sampled traceparent header is
// adopted (this node becomes a participant in the caller's trace),
// otherwise a fresh trace id is minted and head sampling decides
// whether spans are collected. Health probes, metrics scrapes and the
// debug endpoints themselves are never traced, and quorum RPCs only
// when they arrive carrying a sampled trace — heartbeats fire far too
// often to head-sample.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.tracer == nil || untracedPath(r.URL.Path) {
		s.mux.ServeHTTP(w, r)
		return
	}
	tp := r.Header.Get(obs.TraceparentHeader)
	if strings.HasPrefix(r.URL.Path, "/quorum/") && tp == "" {
		s.mux.ServeHTTP(w, r)
		return
	}
	ctx, rq := s.tracer.StartRequest(r.Context(), tp, r.Method, r.URL.Path)
	sw := statusWriter{ResponseWriter: w, status: http.StatusOK}
	s.mux.ServeHTTP(&sw, r.WithContext(ctx))
	info := rq.Finish(sw.status)
	if s.accessLog != nil && (info.Sampled || info.Tail) {
		s.accessLog.Log("request",
			"trace", info.TraceID, "method", r.Method, "path", r.URL.Path,
			"status", info.Status, "dur_ms", info.DurationMS,
			"sampled", info.Sampled)
	}
}

// untracedPath lists the endpoints the obs plane itself ignores.
func untracedPath(p string) bool {
	return p == "/healthz" || p == "/readyz" || p == "/metrics" ||
		strings.HasPrefix(p, "/debug/")
}

// statusWriter captures the response status for trace finishing.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	sw.status = status
	sw.ResponseWriter.WriteHeader(status)
}

// Flush keeps pprof's streaming endpoints working through the wrapper
// (quorum and serving responses never flush explicitly).
func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeErr sends a JSON error body with the given status. Shed
// responses (429) carry a Retry-After header — whole seconds, rounded
// up from the admission controller's backoff hint — so well-behaved
// clients back off the right amount instead of guessing.
func (s *Server) writeErr(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(err)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if eerr := json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}); eerr != nil {
		s.logf("server: encoding error response: %v", eerr)
	}
}

// writeJSON sends v as a 200 JSON response, encoded as json.Encoder
// encodes it (see writeBody).
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, v interface{}) {
	s.writeBody(w, r, func(dst []byte) ([]byte, error) {
		b, err := json.Marshal(v)
		return append(append(dst, b...), '\n'), err
	})
}

// wireBufs pools the buffers responses are encoded into.
var wireBufs = sync.Pool{New: func() interface{} { return new([]byte) }}

// writeBody sends the JSON body encode appends as a 200 response with
// its Content-Length — unless the request context is already
// cancelled, in which case it aborts with 499 instead of encoding a
// body nobody will read. The body is encoded before the status line,
// so a value that cannot be encoded (a NaN score) answers 500 with an
// error body; that and a client that hung up mid-body are logged,
// never swallowed.
func (s *Server) writeBody(w http.ResponseWriter, r *http.Request, encode func(dst []byte) ([]byte, error)) {
	if s.aborted(w, r) {
		return
	}
	bp := wireBufs.Get().(*[]byte)
	body, err := encode((*bp)[:0])
	defer recycleWireBuf(bp, body)
	if err != nil {
		s.logf("server: encoding %s %s response: %v", r.Method, r.URL.Path, err)
		s.writeErr(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	s.writeOK(w, r, body)
}

// aborted answers 499 and reports true when the request context is
// cancelled: the client is gone.
func (s *Server) aborted(w http.ResponseWriter, r *http.Request) bool {
	err := r.Context().Err()
	if err != nil {
		w.WriteHeader(StatusClientClosedRequest)
		s.logf("server: %s %s aborted: %v", r.Method, r.URL.Path, err)
	}
	return err != nil
}

// jsonContentType is the Content-Type value writeOK shares between
// responses, read-only: Header.Set would allocate a slice per response.
// Its capacity is its length, so an Add on one response's header copies
// it rather than writing into the next response's.
var jsonContentType = []string{"application/json"}

// writeOK sends body as a 200 JSON response with its Content-Length.
func (s *Server) writeOK(w http.ResponseWriter, r *http.Request, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.logf("server: writing %s %s response: %v", r.Method, r.URL.Path, err)
	}
}

// recycleWireBuf pools body, grown from bp's buffer, unless it grew too
// big.
func recycleWireBuf(bp *[]byte, body []byte) {
	if cap(body) <= maxPooledBytes {
		*bp = body
		wireBufs.Put(bp)
	}
}

// searchErrStatus maps a Searcher error to an HTTP status: context
// cancellation means the client is gone (499); request-content errors —
// validation failures and lookups of names the client sent, all tagged
// search.ErrInvalid — are the client's fault (400); an admission shed
// (search.ErrOverloaded — the replica is healthy but at capacity) is
// 429, the retry-here-after-backoff class; a serving-substrate failure
// (search.ErrUnavailable — every fleet replica that could own the
// request is down) is 503, the failover/retry-later class; anything
// else is a backend failure (500).
func searchErrStatus(err error) int {
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return StatusClientClosedRequest
	case errors.Is(err, search.ErrInvalid):
		return http.StatusBadRequest
	case errors.Is(err, search.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, search.ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// retryAfterSeconds extracts the backoff hint from a shed error for the
// Retry-After header (at least 1, since the header counts whole
// seconds).
func retryAfterSeconds(err error) int {
	var oe *search.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		if secs := int((oe.RetryAfter + time.Second - 1) / time.Second); secs > 1 {
			return secs
		}
	}
	return 1
}

// decodeBody strictly decodes a JSON request body into v.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}) error {
	return decodeJSON(http.MaxBytesReader(w, r.Body, MaxBodyBytes), v)
}

// decodeJSON strictly decodes the one JSON value rd holds into v.
func decodeJSON(rd io.Reader, v interface{}) error {
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding request body: %w", err)
	}
	// Reject anything but whitespace after the JSON value (More alone
	// lets a stray closing bracket through).
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("request body holds more than one JSON value")
	}
	return nil
}

func (s *Server) requireMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		w.Header().Set("Allow", method)
		s.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return false
	}
	return true
}

// FriendRequest is the /v1/friend body. The request types are exported
// because the fleet's replica client (internal/fleet) puts exactly
// these on the wire: one definition serves both ends of the hop.
type FriendRequest struct {
	A      string  `json:"a"`
	B      string  `json:"b"`
	Weight float64 `json:"weight"`
}

// TagRequest is the /v1/tag body.
type TagRequest struct {
	User string `json:"user"`
	Item string `json:"item"`
	Tag  string `json:"tag"`
}

// handleMutation is the shared body of /v1/friend and /v1/tag: it
// decodes the request into req, admits the mutation as a write, runs it
// — a front-end gets the request context (its trace), any other backend
// a plain call — and answers 204.
func (s *Server) handleMutation(w http.ResponseWriter, r *http.Request, req interface{}, mutate func() error) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	if err := decodeBody(w, r, req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	tk, ok := s.admit(w, r, admission.Write)
	if !ok {
		return
	}
	err := mutate()
	tk.Release(err)
	if err != nil {
		s.writeMutationErr(w, r, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFriend(w http.ResponseWriter, r *http.Request) {
	var req FriendRequest
	s.handleMutation(w, r, &req, func() error {
		if s.frontend != nil {
			return s.frontend.Mutate(r.Context(), social.Mutation{Kind: social.KindBefriend, User: req.A, Friend: req.B, Weight: req.Weight})
		}
		return s.backend.Befriend(req.A, req.B, req.Weight)
	})
}

func (s *Server) handleTag(w http.ResponseWriter, r *http.Request) {
	var req TagRequest
	s.handleMutation(w, r, &req, func() error {
		if s.frontend != nil {
			return s.frontend.Mutate(r.Context(), social.Mutation{Kind: social.KindTag, User: req.User, Item: req.Item, Tag: req.Tag})
		}
		return s.backend.Tag(req.User, req.Item, req.Tag)
	})
}

// writeMutationErr answers a failed /v1 mutation. A quorum follower's
// refusal becomes a 307 redirect at the elected leader (same path,
// method and body preserved by the 307 semantics) when the leader is
// known, and a 503 mid-election when it is not; everything else goes
// through mutationErrStatus.
func (s *Server) writeMutationErr(w http.ResponseWriter, r *http.Request, err error) {
	var nle *quorum.NotLeaderError
	if errors.As(err, &nle) {
		if nle.LeaderURL == "" {
			s.writeErr(w, http.StatusServiceUnavailable, err)
			return
		}
		w.Header().Set("Location", nle.LeaderURL+r.URL.Path)
		s.writeErr(w, http.StatusTemporaryRedirect, err)
		return
	}
	s.writeErr(w, mutationErrStatus(err), err)
}

// mutationErrStatus maps a /v1 mutation error to its HTTP status: an
// admission shed is 429 (retry the same endpoint after backoff); a
// serving-substrate failure (search.ErrUnavailable — a fleet front-end
// with no live replica, or none reachable) is 503, the retry-later
// class a load balancer must not confuse with a validation rejection;
// everything else keeps v1's historical 400.
func mutationErrStatus(err error) int {
	switch {
	case errors.Is(err, search.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, search.ErrUnavailable):
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

func (s *Server) handleUsers(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	users := s.backend.Users()
	if users == nil {
		users = []string{}
	}
	s.writeJSON(w, r, map[string][]string{"users": users})
}

// StatsEnvelope is the /v1/stats body when the server has more than
// backend counters to report — an admission controller, build info, a
// tracer: each present block plus the backend's own counters under
// Backend. With none of them the backend stats remain the top-level
// body, so existing deployments see an unchanged wire.
type StatsEnvelope struct {
	Build     *obs.BuildInfo      `json:"Build,omitempty"`
	Admission *admission.Snapshot `json:"Admission,omitempty"`
	Trace     *obs.Stats          `json:"Trace,omitempty"`
	Backend   interface{}         `json:"Backend"`
}

// backendStats resolves the backend's counters through its role.
func (s *Server) backendStats() (interface{}, bool) {
	switch {
	case s.replica != nil:
		return s.replica.Stats(), true
	case s.frontend != nil:
		return s.frontend.StatsAny(), true
	default:
		return nil, false
	}
}

// handleStats reports whatever counters the backend exposes, wrapped
// in a StatsEnvelope when admission, build info or tracing add blocks
// of their own.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	payload, ok := s.backendStats()
	if !ok {
		s.writeErr(w, http.StatusNotFound, errors.New("backend exposes no stats"))
		return
	}
	if s.admission != nil || s.build != nil || s.tracer != nil {
		env := StatsEnvelope{Build: s.build.Info(), Backend: payload}
		if s.admission != nil {
			snap := s.admission.Snapshot()
			env.Admission = &snap
		}
		if s.tracer != nil {
			ts := s.tracer.Stats()
			env.Trace = &ts
		}
		payload = env
	}
	s.writeJSON(w, r, payload)
}

// handleMetrics serves the Prometheus text exposition: the same
// counters as /v1/stats — admission, tracing, and the backend's stats
// struct — rendered as friendserve_* samples by obs.WriteProm, plus
// the build _info line. Registered unconditionally: the stats structs
// exist with or without the obs plane.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	if s.build != nil {
		obs.WriteProm(w, "friendserve_build", s.build.Info())
	}
	if s.admission != nil {
		snap := s.admission.Snapshot()
		obs.WriteProm(w, "friendserve_admission", &snap)
	}
	if s.tracer != nil {
		obs.WriteProm(w, "friendserve_trace", s.tracer.Stats())
	}
	if payload, ok := s.backendStats(); ok {
		obs.WriteProm(w, "friendserve", payload)
	}
}

// ListenAndServe runs the server on addr until ctx is cancelled, then
// drains gracefully: /readyz flips to 503 immediately (so load
// balancers and fleet health checkers stop sending new work), the
// server keeps answering for the configured drain delay, and finally
// http.Server.Shutdown waits — up to shutdownTimeout — for in-flight
// requests to finish before the listener closes.
func (s *Server) ListenAndServe(ctx context.Context, addr string, shutdownTimeout time.Duration) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           s,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		s.SetReady(false)
		if s.drainDelay > 0 {
			time.Sleep(s.drainDelay)
		}
		sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}

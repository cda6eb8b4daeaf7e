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
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/search"
	"repro/internal/social"
	"repro/internal/tagstore"
	"repro/internal/vocab"
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

// Replica is the role of a backend that holds the state itself and
// applies the fleet's replication stream: *social.Service, volatile or
// journaled. Its endpoints (/v2/apply, /v2/snapshot, /v2/cache/*)
// answer 404 on a backend that is not one.
type Replica interface {
	// Apply (each record of a POST /v2/apply page) applies one
	// replication record with idempotent dedup (at or below the cursor:
	// no-op) and strict ordering (ahead of cursor+1:
	// social.ErrReplicationGap, 409 on the wire); a record of the zero
	// Kind only advances the cursor.
	Apply(m social.Mutation) error
	// AppliedLSN is the replication cursor; /healthz reports it (header
	// X-Applied-LSN), so fleet health probes double as lag probes.
	AppliedLSN() uint64
	// Flush (an apply page with "fold" set, after its records) folds
	// the applied records into the queryable snapshot, dropping the
	// cached seeker horizons their friendships could affect.
	Flush() error
	// SnapshotWithCursor and ImportSnapshot (GET/POST /v2/snapshot)
	// export the compacted state pinned at the replication cursor, and
	// replace the entire state with such an export — how a joining
	// replica bootstraps before replaying the fleet log suffix.
	SnapshotWithCursor() (*graph.Graph, *tagstore.Store, *vocab.Set, uint64, error)
	ImportSnapshot(g *graph.Graph, st *tagstore.Store, names *vocab.Set, lsn uint64) error
	// CachedSeekers and WarmSeekers (GET /v2/cache/seekers, POST
	// /v2/cache/warm) list the seekers with resident cached horizons and
	// materialize a given slice of seekers ahead of a traffic flip.
	CachedSeekers() []string
	WarmSeekers(ctx context.Context, seekers []string) (int, error)
	Stats() social.Stats
}

// New resolves roles by a dynamic assertion, which would quietly turn a
// role off if the one replica type drifted from the interface.
var _ Replica = (*social.Service)(nil)

// Frontend is the role of a backend that owns no state but fronts a
// fleet of replicas: *fleet.Frontend. /v2/replog and /v2/fleet/resize
// answer 404 on a backend that is not one.
type Frontend interface {
	// Mutate replaces Befriend/Tag for /v1 mutations, so the request
	// context — carrying the trace — reaches the quorum append and
	// replica fan-out path; cancellation is stripped there (a client
	// hang-up must never abort a replication fan-out half-way).
	Mutate(ctx context.Context, m social.Mutation) error
	// QuorumRole is an HA front-end's quorum role, believed leader URL
	// and term, reported on /healthz (X-Quorum-Role / -Leader / -Term) so
	// finding the leader is one HEAD request; role "" means no quorum.
	QuorumRole() (role, leaderURL string, term uint64)
	// ReplogPage (GET /v2/replog) pages through the fleet replication
	// log from a given LSN; ErrNoReplog when the log is disabled.
	ReplogPage(from uint64, max int) (ReplogPage, error)
	// JoinReplica, RetireReplica and FleetEpoch (POST /v2/fleet/resize)
	// are elastic membership: joining adopts a running replica by URL
	// (admit → snapshot bootstrap → log catch-up → cache pre-warm → ring
	// activation under a new topology epoch); retiring drains a slot's
	// cached working set to its ring successors and removes it.
	JoinReplica(ctx context.Context, url string) (slot int, err error)
	RetireReplica(ctx context.Context, slot int) error
	FleetEpoch() uint64
	// StatsAny is the front-end's counters, a type this package does
	// not know.
	StatsAny() interface{}
}

// ReplogRecord is one replication log record on the /v2/replog wire
// (Data is base64 in JSON, the durable/wal record payload verbatim).
type ReplogRecord struct {
	LSN  uint64 `json:"lsn"`
	Type uint8  `json:"type"`
	Data []byte `json:"data"`
}

// ReplogPage is the GET /v2/replog response body: the records from the
// requested LSN (capped at MaxReplogPageRecords per page) and the log
// head at read time. A caller has the full stream once it has paged
// through lsn == head.
type ReplogPage struct {
	From    uint64         `json:"from"`
	Head    uint64         `json:"head"`
	Records []ReplogRecord `json:"records"`
}

// ErrNoReplog is returned by a Frontend whose replication log is
// disabled; the handler maps it to 404.
var ErrNoReplog = errors.New("server: no replication log configured")

// MaxWarmSeekers bounds one POST /v2/cache/warm request.
const MaxWarmSeekers = 65536

// FleetResizeRequest is the POST /v2/fleet/resize body: replica base
// URLs to join and member slots to retire. Joins run first (in order),
// then retires — so one request can grow-then-shrink atomically from
// the caller's point of view.
type FleetResizeRequest struct {
	Join   []string `json:"join,omitempty"`
	Retire []int    `json:"retire,omitempty"`
}

// FleetResizeResponse reports the slots joined and retired and the
// topology epoch after the resize.
type FleetResizeResponse struct {
	Epoch   uint64 `json:"epoch"`
	Joined  []int  `json:"joined"`
	Retired []int  `json:"retired"`
}

// MaxResizeOps bounds one resize request's combined join+retire count.
const MaxResizeOps = 64

// SnapshotLSNHeader carries the pinned replication cursor of a
// /v2/snapshot export (it also rides inside the stream; the header
// lets an orchestrator log the pin without parsing the body).
const SnapshotLSNHeader = "X-Snapshot-LSN"

// maxSnapshotBodyBytes bounds POST /v2/snapshot import bodies.
const maxSnapshotBodyBytes = 4 << 30

// MaxReplogPageRecords caps one /v2/replog page.
const MaxReplogPageRecords = 1024

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
	if err := r.Context().Err(); err != nil {
		w.WriteHeader(StatusClientClosedRequest)
		s.logf("server: %s %s aborted: %v", r.Method, r.URL.Path, err)
		return
	}
	bp := wireBufs.Get().(*[]byte)
	body, err := encode((*bp)[:0])
	defer func() {
		if cap(body) <= maxPooledBytes {
			*bp = body
			wireBufs.Put(bp)
		}
	}()
	if err != nil {
		s.logf("server: encoding %s %s response: %v", r.Method, r.URL.Path, err)
		s.writeErr(w, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.logf("server: writing %s %s response: %v", r.Method, r.URL.Path, err)
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

// ApplyRequest is the POST /v2/apply body: a page of replication log
// records, LSN-consecutive, at most MaxReplogPageRecords of them. Fold
// asks the replica to fold what it applied into its queryable snapshot
// once the page is applied; the sender sets it on the last page of a
// stream.
type ApplyRequest struct {
	Records []social.Mutation `json:"records"`
	Fold    bool              `json:"fold,omitempty"`
}

// ApplyRejection names a record of an apply page the replica rejected
// deterministically: processed — the cursor moved past it, as on every
// replica — and nothing applied.
type ApplyRejection struct {
	LSN   uint64 `json:"lsn"`
	Error string `json:"error"`
}

// AppliedResponse answers an apply page or a snapshot import: the
// replica's cursor afterwards and the page's rejected records. Spans
// carries this process's span data for a page that arrived as part of
// a sampled distributed trace (see obs.WireSpans).
type AppliedResponse struct {
	AppliedLSN uint64           `json:"applied_lsn"`
	Rejected   []ApplyRejection `json:"rejected,omitempty"`
	Spans      []obs.SpanData   `json:"spans,omitempty"`
}

// handleApply is the replication entry point: it applies a page of log
// records in order through Replica.Apply, and is never shed (see the
// admission field). A malformed page — bad JSON, an unknown kind, a
// zero or non-consecutive LSN, too many records — is a 400 and a page
// starting past cursor+1 a 409 (the sender streams the gap first);
// neither applies anything, as records are consecutive and a gap can
// only open before the first. On any other failure the CURSOR decides:
// one that advanced to the record's LSN means a deterministic rejection
// every replica repeats identically, listed while the page goes on; one
// left behind means an internal failure (a full disk, a broken log)
// that retrying may fix — 500, with only the records before it applied.
// A page with fold set is then folded in (Replica.Flush); a fold that
// fails is a 500 too.
func (s *Server) handleApply(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	if s.replica == nil {
		s.writeErr(w, http.StatusNotFound, errors.New("backend does not apply replication records"))
		return
	}
	var req ApplyRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	recs := req.Records
	if len(recs) == 0 || len(recs) > MaxReplogPageRecords {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("apply page holds %d records, want 1 to %d", len(recs), MaxReplogPageRecords))
		return
	}
	for i, m := range recs {
		if m.LSN == 0 || i > 0 && m.LSN != recs[i-1].LSN+1 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("record %d: lsn %d does not continue the page", i, m.LSN))
			return
		}
		if !m.Kind.Known() {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("record %d: unknown kind %q", i, m.Kind))
			return
		}
	}
	var resp AppliedResponse
	for _, m := range recs {
		err := s.replica.Apply(m)
		switch {
		case err == nil:
		case errors.Is(err, social.ErrReplicationGap):
			s.writeErr(w, http.StatusConflict, err)
			return
		case s.replica.AppliedLSN() >= m.LSN:
			resp.Rejected = append(resp.Rejected, ApplyRejection{LSN: m.LSN, Error: err.Error()})
		default:
			s.writeErr(w, http.StatusInternalServerError, fmt.Errorf("lsn %d: %w", m.LSN, err))
			return
		}
	}
	if req.Fold {
		if err := s.replica.Flush(); err != nil {
			s.writeErr(w, http.StatusInternalServerError, fmt.Errorf("fold: %w", err))
			return
		}
	}
	resp.AppliedLSN = s.replica.AppliedLSN()
	resp.Spans = obs.WireSpans(r.Context())
	s.writeJSON(w, r, resp)
}

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
// validation (errs[i] == nil) run as one backend batch under one
// admission ticket — the batch is one unit of admitted work — and come
// back by input position (entry i is zero where errs[i] is set). The
// backend is skipped entirely when nothing survived validation (a
// durable backend folds pending writes even for an empty batch). ok is false when
// admission refused the batch; the response is written then.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, reqs []search.Request, errs []error) ([]search.BatchResult, bool) {
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
		out = s.backend.DoBatch(r.Context(), runnable)
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

// V2SearchResponse is the /v2/search response body. Spans carries
// this process's span data when the query arrived as part of a sampled
// distributed trace — a front-end stitching a replica's work into its
// own trace (see obs.WireSpans); client-initiated queries never see it.
type V2SearchResponse struct {
	Results []search.Result `json:"results"`
	Explain *search.Explain `json:"explain,omitempty"`
	Spans   []obs.SpanData  `json:"spans,omitempty"`
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
	out := V2SearchResponse{
		Results: resp.Results, Explain: resp.Explain,
		Spans: obs.WireSpans(r.Context()),
	}
	s.writeBody(w, r, func(dst []byte) ([]byte, error) { return AppendSearchResponse(dst, &out) })
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
// answers query i. Spans: see V2SearchResponse.
type V2BatchResponse struct {
	Results []V2BatchEntry `json:"results"`
	Spans   []obs.SpanData `json:"spans,omitempty"`
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
	batch, ok := s.runBatch(w, r, reqs, errs)
	if !ok {
		return
	}
	resp := V2BatchResponse{Results: make([]V2BatchEntry, len(reqs)), Spans: obs.WireSpans(r.Context())}
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
	s.writeBody(w, r, func(dst []byte) ([]byte, error) { return AppendBatchResponse(dst, &resp) })
}

// handleReplog pages through the fleet replication log:
// GET /v2/replog?from=LSN returns the records from that LSN (default 1,
// at most MaxReplogPageRecords) plus the log head, so a reader streams
// the log by paging until it has seen lsn == head.
func (s *Server) handleReplog(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	if s.frontend == nil {
		s.writeErr(w, http.StatusNotFound, errors.New("backend has no replication log"))
		return
	}
	from := uint64(1)
	if fs := r.URL.Query().Get("from"); fs != "" {
		v, err := strconv.ParseUint(fs, 10, 64)
		if err != nil || v == 0 {
			s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad from %q", fs))
			return
		}
		from = v
	}
	page, err := s.frontend.ReplogPage(from, MaxReplogPageRecords)
	if err != nil {
		if errors.Is(err, ErrNoReplog) {
			s.writeErr(w, http.StatusNotFound, err)
			return
		}
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	if page.Records == nil {
		page.Records = []ReplogRecord{}
	}
	s.writeJSON(w, r, page)
}

// handleSnapshot serves the replica bootstrap plane. GET exports the
// backend's compacted state as a binary stream pinned at the
// replication cursor (social.WriteSnapshotStream form, cursor echoed in
// X-Snapshot-LSN); POST replaces the backend's entire state with such a
// stream. Mutations racing an export simply land after the pinned
// cursor and reach the importer through the replication log suffix.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		if s.replica == nil {
			s.writeErr(w, http.StatusNotFound, errors.New("backend does not export snapshots"))
			return
		}
		g, st, names, lsn, err := s.replica.SnapshotWithCursor()
		if err != nil {
			s.writeErr(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set(SnapshotLSNHeader, strconv.FormatUint(lsn, 10))
		if err := social.WriteSnapshotStream(w, g, st, names, lsn); err != nil && s.logf != nil {
			s.logf("server: streaming snapshot: %v", err)
		}
	case http.MethodPost:
		if s.replica == nil {
			s.writeErr(w, http.StatusNotFound, errors.New("backend does not import snapshots"))
			return
		}
		g, st, names, lsn, err := social.ReadSnapshotStream(io.LimitReader(r.Body, maxSnapshotBodyBytes))
		if err != nil {
			s.writeErr(w, http.StatusBadRequest, err)
			return
		}
		if err := s.replica.ImportSnapshot(g, st, names, lsn); err != nil {
			s.writeErr(w, http.StatusInternalServerError, err)
			return
		}
		s.writeJSON(w, r, AppliedResponse{AppliedLSN: lsn})
	default:
		w.Header().Set("Allow", "GET, POST")
		s.writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// handleCacheSeekers lists the seekers with resident cached horizons
// (hottest first per cache stripe) — the enumeration half of the pre-warm
// plane a resize orchestrator drives.
func (s *Server) handleCacheSeekers(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodGet) {
		return
	}
	if s.replica == nil {
		s.writeErr(w, http.StatusNotFound, errors.New("backend has no seeker cache plane"))
		return
	}
	seekers := s.replica.CachedSeekers()
	if seekers == nil {
		seekers = []string{}
	}
	s.writeJSON(w, r, struct {
		Seekers []string `json:"seekers"`
	}{Seekers: seekers})
}

// handleCacheWarm materializes the given seekers' horizons into the
// cache — the install half of the pre-warm plane. Unknown seekers are
// skipped, not errors.
func (s *Server) handleCacheWarm(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	if s.replica == nil {
		s.writeErr(w, http.StatusNotFound, errors.New("backend has no seeker cache plane"))
		return
	}
	var req struct {
		Seekers []string `json:"seekers"`
	}
	if err := decodeBody(w, r, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Seekers) > MaxWarmSeekers {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("%d seekers exceeds limit %d", len(req.Seekers), MaxWarmSeekers))
		return
	}
	warmed, err := s.replica.WarmSeekers(r.Context(), req.Seekers)
	if err != nil {
		s.writeErr(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, r, struct {
		Warmed int `json:"warmed"`
	}{Warmed: warmed})
}

// handleFleetResize drives elastic membership on a fleet front-end:
// joins run first (each is admit → snapshot bootstrap → catch-up →
// pre-warm → activate), then retires (drain → remove). The first
// failing operation aborts the rest; the response reports what
// completed, so a retried request — joins are idempotent by URL,
// retires by slot — finishes the remainder.
func (s *Server) handleFleetResize(w http.ResponseWriter, r *http.Request) {
	if !s.requireMethod(w, r, http.MethodPost) {
		return
	}
	fr := s.frontend
	if fr == nil {
		s.writeErr(w, http.StatusNotFound, errors.New("backend is not a resizable fleet front-end"))
		return
	}
	var req FleetResizeRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Join)+len(req.Retire) == 0 {
		s.writeErr(w, http.StatusBadRequest, errors.New("resize request names no joins or retires"))
		return
	}
	if len(req.Join)+len(req.Retire) > MaxResizeOps {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("%d operations exceeds limit %d", len(req.Join)+len(req.Retire), MaxResizeOps))
		return
	}
	resp := FleetResizeResponse{Joined: []int{}, Retired: []int{}}
	fail := func(err error) {
		resp.Epoch = fr.FleetEpoch()
		status := http.StatusInternalServerError
		if errors.Is(err, search.ErrUnavailable) {
			status = http.StatusServiceUnavailable
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(struct {
			Error string `json:"error"`
			FleetResizeResponse
		}{Error: err.Error(), FleetResizeResponse: resp})
	}
	for _, url := range req.Join {
		slot, err := fr.JoinReplica(r.Context(), url)
		if err != nil {
			fail(fmt.Errorf("join %s: %w", url, err))
			return
		}
		resp.Joined = append(resp.Joined, slot)
	}
	for _, slot := range req.Retire {
		if err := fr.RetireReplica(r.Context(), slot); err != nil {
			fail(fmt.Errorf("retire slot %d: %w", slot, err))
			return
		}
		resp.Retired = append(resp.Retired, slot)
	}
	resp.Epoch = fr.FleetEpoch()
	s.writeJSON(w, r, resp)
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

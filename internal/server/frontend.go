package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/search"
	"repro/internal/social"
)

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
	// SearchBytes and SearchBatchBytes are a front-end's one search
	// path: the replicas get the queries' own JSON, and their answers
	// come back as the bytes this server writes. SearchBytes posts body,
	// req's JSON, and appends the answer to dst. SearchBatchBytes answers
	// reqs, queries[i] being reqs[i]'s JSON: where a replica answered
	// query i, entries[i] is its entry verbatim and result i carries the
	// entry's error, if any (zero otherwise); where none did, entries[i]
	// is nil and result i the error.
	SearchBytes(ctx context.Context, req search.Request, body, dst []byte) ([]byte, error)
	SearchBatchBytes(ctx context.Context, reqs []search.Request, queries []string, entries [][]byte) []search.BatchResult
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

// MaxReplogPageRecords caps one /v2/replog page.
const MaxReplogPageRecords = 1024

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

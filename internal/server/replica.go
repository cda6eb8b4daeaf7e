package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"repro/internal/graph"
	"repro/internal/social"
	"repro/internal/tagstore"
	"repro/internal/vocab"
)

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

// MaxWarmSeekers bounds one POST /v2/cache/warm request.
const MaxWarmSeekers = 65536

// SnapshotLSNHeader carries the pinned replication cursor of a
// /v2/snapshot export (it also rides inside the stream; the header
// lets an orchestrator log the pin without parsing the body).
const SnapshotLSNHeader = "X-Snapshot-LSN"

// maxSnapshotBodyBytes bounds POST /v2/snapshot import bodies.
const maxSnapshotBodyBytes = 4 << 30

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
// replica's cursor afterwards and the page's rejected records.
type AppliedResponse struct {
	AppliedLSN uint64           `json:"applied_lsn"`
	Rejected   []ApplyRejection `json:"rejected,omitempty"`
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
	s.writeJSON(w, r, resp)
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

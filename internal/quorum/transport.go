package quorum

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// maxEntriesPerAppend caps one replication push; a lagging peer is
// drained in successive batches rather than one giant RPC.
const maxEntriesPerAppend = 512

// persistentState is the term/vote pair Raft requires to survive
// restarts (forgetting a vote could hand out two votes in one term and
// elect two leaders) and a truncated log's first kept record's term,
// whose RecTerm may be gone.
type persistentState struct {
	Term     uint64 `json:"term"`
	VotedFor string `json:"voted_for"`
	BaseLSN  uint64 `json:"base_lsn,omitempty"`
	BaseTerm uint64 `json:"base_term,omitempty"`
}

const stateFile = "quorum-state.json"

func loadState(dir string) (persistentState, error) {
	var ps persistentState
	buf, err := os.ReadFile(filepath.Join(dir, stateFile))
	if errors.Is(err, os.ErrNotExist) {
		return ps, nil
	}
	if err != nil {
		return ps, fmt.Errorf("quorum: reading state file: %w", err)
	}
	if err := json.Unmarshal(buf, &ps); err != nil {
		return ps, fmt.Errorf("quorum: corrupt state file: %w", err)
	}
	return ps, nil
}

// saveStateLocked durably replaces the state file (write temp, fsync,
// rename) before the vote, term bump or truncation it records takes
// effect. Callers hold n.mu.
func (n *Node) saveStateLocked() error {
	dir := n.cfg.Dir
	buf, err := json.Marshal(persistentState{Term: n.term, VotedFor: n.votedFor, BaseLSN: n.base.start, BaseTerm: n.base.term})
	if err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, stateFile+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, stateFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Wire messages. JSON over plain POSTs keeps the transport debuggable
// with curl and reuses the fleet's HTTP plumbing; entry payloads are
// small (the Rec* codec) so base64 overhead is immaterial.

type voteRequest struct {
	Term      uint64 `json:"term"`
	Candidate string `json:"candidate"`
	LastLSN   uint64 `json:"last_lsn"`
	LastTerm  uint64 `json:"last_term"`
}

type voteResponse struct {
	Term    uint64 `json:"term"`
	Granted bool   `json:"granted"`
}

type logEntry struct {
	LSN  uint64 `json:"lsn"`
	Term uint64 `json:"term"`
	Type uint8  `json:"type"`
	Data []byte `json:"data"`
	// Traceparent carries the originating mutation's trace context.
	// Replication is detached from the mutation's request (pushPeer
	// batches entries from its own goroutine), so the usual
	// header-level obs.Inject never sees the mutation's span — the
	// trace rides per entry instead, letting followers report their
	// replication spans back for /debug/traces stitching.
	Traceparent string `json:"traceparent,omitempty"`
}

type appendRequest struct {
	Term      uint64     `json:"term"`
	LeaderID  string     `json:"leader_id"`
	LeaderURL string     `json:"leader_url"`
	PrevLSN   uint64     `json:"prev_lsn"`
	PrevTerm  uint64     `json:"prev_term"`
	Entries   []logEntry `json:"entries,omitempty"`
	Commit    uint64     `json:"commit"`
}

type appendResponse struct {
	Term  uint64 `json:"term"`
	OK    bool   `json:"ok"`
	Match uint64 `json:"match_lsn"`
	Hint  uint64 `json:"hint_lsn"`
	// Spans reports the follower's replication spans for entries that
	// carried a Traceparent, keyed by LSN so the leader can merge each
	// into the right originating trace (one batch may carry entries
	// from several concurrent traced mutations).
	Spans map[uint64][]obs.SpanData `json:"spans,omitempty"`
}

var transport = &http.Client{}

func postJSON(ctx context.Context, url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	// A traced mutation's quorum append carries its traceparent, so the
	// followers' flight recorders capture the replicate leg too.
	obs.Inject(ctx, req.Header)
	resp, err := transport.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("quorum: %s: unexpected status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func sendVote(ctx context.Context, baseURL string, req voteRequest) (voteResponse, error) {
	var resp voteResponse
	err := postJSON(ctx, baseURL+"/quorum/vote", req, &resp)
	return resp, err
}

func sendAppend(ctx context.Context, baseURL string, req appendRequest) (appendResponse, error) {
	var resp appendResponse
	err := postJSON(ctx, baseURL+"/quorum/append", req, &resp)
	return resp, err
}

// Handler exposes the consensus transport: POST /quorum/vote,
// POST /quorum/append, and GET /quorum/status for operators. Mount it
// on the same server that serves the node's peer URL.
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/quorum/vote", func(w http.ResponseWriter, r *http.Request) {
		var req voteRequest
		if !decodeRPC(w, r, &req) {
			return
		}
		writeJSON(w, n.handleVote(req))
	})
	mux.HandleFunc("/quorum/append", func(w http.ResponseWriter, r *http.Request) {
		var req appendRequest
		if !decodeRPC(w, r, &req) {
			return
		}
		writeJSON(w, n.handleAppend(req))
	})
	mux.HandleFunc("/quorum/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		writeJSON(w, n.Stats())
	})
	return mux
}

func decodeRPC(w http.ResponseWriter, r *http.Request, into any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 16<<20)).Decode(into); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/quorum"
	"repro/internal/search"
	"repro/internal/server"
)

// haElectionBackoff is the pause between full passes over the
// front-end set when no leader is reachable — the width of an election
// window, so a client riding out a failover retries into the new term
// instead of burning its budget mid-election.
const haElectionBackoff = 150 * time.Millisecond

// haWritePasses bounds how many full passes over the front-end set one
// write may take before reporting unavailable.
const haWritePasses = 20

// HAClient aims the fleet wire protocol at a set of HA front-ends
// instead of a single one. Reads go to any reachable front-end
// (failing over on ErrUnavailable and remembering the last one that
// answered); writes track the leader: a follower's 307 redirect
// (surfaced as quorum.NotLeaderError) re-aims the write at the named
// leader, and elections are ridden out with a bounded retry budget
// rather than surfaced to the caller. Safe for concurrent use.
type HAClient struct {
	fronts []*Client

	mu    sync.Mutex
	read  int // last front-end that answered a read
	write int // believed leader
}

var _ search.Searcher = (*HAClient)(nil)

// NewHAClient builds a client over the given front-end base URLs.
func NewHAClient(urls []string, cfg ClientConfig) (*HAClient, error) {
	if len(urls) == 0 {
		return nil, errors.New("fleet: HA client needs at least one front-end URL")
	}
	h := &HAClient{}
	for _, u := range urls {
		c, err := NewClient(u, cfg)
		if err != nil {
			return nil, err
		}
		h.fronts = append(h.fronts, c)
	}
	return h, nil
}

// Fronts returns the per-front-end clients, in construction order
// (read-only; useful for stats probing and tests).
func (h *HAClient) Fronts() []*Client { return h.fronts }

func (h *HAClient) startRead() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.read
}

func (h *HAClient) noteRead(i int) {
	h.mu.Lock()
	h.read = i
	h.mu.Unlock()
}

// Do answers one query via any reachable front-end. Only
// ErrUnavailable fails over: invalid requests and sheds are decisive
// wherever they were answered.
func (h *HAClient) Do(ctx context.Context, req search.Request) (search.Response, error) {
	start := h.startRead()
	var lastErr error
	for k := 0; k < len(h.fronts); k++ {
		i := (start + k) % len(h.fronts)
		resp, err := h.fronts[i].Do(ctx, req)
		if err == nil {
			h.noteRead(i)
			return resp, nil
		}
		if !errors.Is(err, search.ErrUnavailable) {
			return search.Response{}, err
		}
		lastErr = err
	}
	return search.Response{}, lastErr
}

// DoBatch answers a batch via any reachable front-end; a whole-batch
// transport failure tries the next front-end.
func (h *HAClient) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	start := h.startRead()
	var last []search.BatchResult
	for k := 0; k < len(h.fronts); k++ {
		i := (start + k) % len(h.fronts)
		out := h.fronts[i].DoBatch(ctx, reqs)
		if !batchWhollyUnavailable(out) {
			h.noteRead(i)
			return out
		}
		last = out
	}
	return last
}

// batchWhollyUnavailable reports a batch whose every entry failed with
// the failover-eligible class — the only shape worth re-routing.
func batchWhollyUnavailable(out []search.BatchResult) bool {
	if len(out) == 0 {
		return false
	}
	for _, br := range out {
		if br.Err == nil || !errors.Is(br.Err, search.ErrUnavailable) {
			return false
		}
	}
	return true
}

// Befriend sends one friendship mutation to the current leader,
// following redirects and riding out elections.
func (h *HAClient) Befriend(ctx context.Context, a, b string, weight float64) error {
	return h.mutate(ctx, "/v1/friend", server.FriendRequest{A: a, B: b, Weight: weight})
}

// Tag sends one tagging mutation to the current leader, following
// redirects and riding out elections.
func (h *HAClient) Tag(ctx context.Context, user, item, tag string) error {
	return h.mutate(ctx, "/v1/tag", server.TagRequest{User: user, Item: item, Tag: tag})
}

// Users asks any reachable front-end for the fleet's user set.
func (h *HAClient) Users(ctx context.Context) ([]string, error) {
	start := h.startRead()
	var lastErr error
	for k := 0; k < len(h.fronts); k++ {
		i := (start + k) % len(h.fronts)
		users, err := h.fronts[i].Users(ctx)
		if err == nil {
			h.noteRead(i)
			return users, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// mutate is the leader-tracking write loop: aim at the believed
// leader; a NotLeaderError with an address re-aims immediately, one
// without (mid-election) and an unreachable front-end advance
// round-robin after an election-width pause. Decisive answers —
// success, validation rejection, overload shed — return as-is. The body
// is a plain (unstamped) front-door mutation: the front-end stamps it.
func (h *HAClient) mutate(ctx context.Context, path string, body interface{}) error {
	h.mu.Lock()
	target := h.write
	h.mu.Unlock()
	var lastErr error
	for pass := 0; pass < haWritePasses; pass++ {
		for k := 0; k < len(h.fronts); k++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			err := h.fronts[target].post(ctx, path, body, nil)
			if err == nil {
				h.mu.Lock()
				h.write = target
				h.mu.Unlock()
				return nil
			}
			lastErr = err
			var nle *quorum.NotLeaderError
			switch {
			case errors.As(err, &nle):
				if i, ok := h.frontByURL(nle.LeaderURL); ok && i != target {
					target = i
					continue // re-aim costs an attempt, not a pass
				}
				// Leader unknown (mid-election) or not in our set:
				// round-robin and let the pass backoff ride out the vote.
				target = (target + 1) % len(h.fronts)
			case errors.Is(err, search.ErrUnavailable):
				target = (target + 1) % len(h.fronts)
			default:
				// Validation rejection, shed, caller-context expiry:
				// decisive wherever it was answered.
				return err
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(haElectionBackoff):
		}
	}
	return unavailablef("no front-end accepted the write after %d passes: %v", haWritePasses, lastErr)
}

// frontByURL maps a leader URL from a redirect to a front-end index.
func (h *HAClient) frontByURL(url string) (int, bool) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return 0, false
	}
	for i, c := range h.fronts {
		if c.URL() == url {
			return i, true
		}
	}
	return 0, false
}

// Stats fetches /quorum/status from every front-end (best effort):
// index-aligned with Fronts, nil entries for unreachable peers.
func (h *HAClient) Stats(ctx context.Context) []*quorum.Stats {
	out := make([]*quorum.Stats, len(h.fronts))
	for i, c := range h.fronts {
		var st quorum.Stats
		if err := c.getJSON(ctx, "/quorum/status", &st); err == nil {
			out[i] = &st
		}
	}
	return out
}

// getJSON is a small GET helper for JSON endpoints outside the search
// wire (quorum status).
func (c *Client) getJSON(parent context.Context, path string, out interface{}) error {
	ctx, cancel := context.WithTimeout(parent, c.cfg.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return unavailablef("%s %s: %v", c.base, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return unavailablef("%s %s: status %d", c.base, path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return unavailablef("%s %s: decoding response: %v", c.base, path, err)
	}
	return nil
}

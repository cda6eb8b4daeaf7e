// Package fleet is the multi-process serving fleet: N replica
// processes (each a social.Service behind internal/server, volatile or
// journaled) run the full engine over the same mutation stream, a front-end routes queries to
// the replica owning each seeker (consistent hashing, so exactly one
// replica pays a seeker's horizon expansion), health checking ejects
// dead replicas and spills their seekers across the survivors in ring
// order, and a write-path heartbeat (an edge-less POST /v2/invalidate)
// tells every replica to fold the writes it was forwarded into its
// snapshot, dropping — by the friendships pending in its own overlay —
// exactly the cached horizons they could affect.
//
// The pieces compose left to right:
//
//	Client      — search.Searcher over one replica's /v2 HTTP surface
//	              (pooled connections, per-attempt timeout, optional
//	              hedged requests for tail latency)
//	Pool        — replica registry + /healthz prober + failover router
//	              (itself a search.Searcher)
//	Broadcaster — coalesces writes into one compaction heartbeat
//	RepLog      — the replication log every write goes through first
//	              (one of the two logs behind the unexported
//	              mutationLog seam; the other is the HA quorum's)
//	Frontend    — server.Backend (in the server.Frontend role) gluing
//	              Pool + Broadcaster + log together, so cmd/friendserve
//	              -replicas serves the same API as a single process;
//	              its one mutation path validates with the replicas'
//	              own rule (social.Mutation.Validate), appends the
//	              record to the log, and delivers that record — the
//	              same delivery catch-up replays for a replica that
//	              missed it. No log attached, no writes.
//
// Soundness of the heartbeat is argued in docs/fleet.md: the front-end
// serializes mutations, every replica applies the same stream in the
// same order, and a replica only ever compacts edges it noted itself —
// the single-process edge-scoped rule (docs/sharding.md), run in every
// process.
package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/search"
	"repro/internal/server"
)

// Client defaults, substituted for zero config fields.
const (
	DefaultTimeout      = 10 * time.Second
	DefaultMaxIdleConns = 32
)

// unavailablef wraps a transport- or server-side failure so
// errors.Is(err, search.ErrUnavailable) holds and routers treat it as
// failover-eligible.
func unavailablef(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", search.ErrUnavailable, fmt.Sprintf(format, args...))
}

// ErrBehind reports a replica that refused an LSN-stamped mutation
// because it has not yet applied the preceding records (409 on the
// wire, social.ErrReplicationGap on the replica). The write path treats
// it as "deferred to catch-up" for a replica already rejoining, and as
// divergence evidence — fail the replica's health state so catch-up
// starts — for one that claims to be live.
var ErrBehind = errors.New("fleet: replica behind the replication log")

// ClientConfig tunes a replica client.
type ClientConfig struct {
	// Timeout bounds one HTTP attempt (0 = DefaultTimeout). The caller's
	// ctx can cut it shorter, never longer.
	Timeout time.Duration
	// HedgeDelay, when positive, issues a duplicate of a single-query
	// request that has not answered within the delay and takes whichever
	// attempt finishes first. Search is read-only and idempotent, so the
	// duplicate is safe; the cost is at most one extra request on the
	// slow tail. 0 disables hedging.
	HedgeDelay time.Duration
	// MaxIdleConns bounds the pooled idle connections kept to the
	// replica (0 = DefaultMaxIdleConns).
	MaxIdleConns int
	// Transport overrides the HTTP transport (tests). Nil builds a
	// pooled one from MaxIdleConns.
	Transport http.RoundTripper
}

// Client speaks the /v1 + /v2 wire format of one replica process and
// implements search.Searcher over it. Safe for concurrent use.
type Client struct {
	base     string
	hc       *http.Client
	cfg      ClientConfig
	counters *metrics.ReplicaCounters
}

var _ search.Searcher = (*Client)(nil)

// NewClient builds a client for the replica at baseURL
// (scheme://host:port, no trailing slash required).
func NewClient(baseURL string, cfg ClientConfig) (*Client, error) {
	baseURL = strings.TrimRight(strings.TrimSpace(baseURL), "/")
	if baseURL == "" {
		return nil, errors.New("fleet: empty replica URL")
	}
	if !strings.HasPrefix(baseURL, "http://") && !strings.HasPrefix(baseURL, "https://") {
		return nil, fmt.Errorf("fleet: replica URL %q lacks an http(s) scheme", baseURL)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.Timeout < 0 || cfg.HedgeDelay < 0 || cfg.MaxIdleConns < 0 {
		return nil, fmt.Errorf("fleet: negative client config value")
	}
	if cfg.MaxIdleConns == 0 {
		cfg.MaxIdleConns = DefaultMaxIdleConns
	}
	rt := cfg.Transport
	if rt == nil {
		rt = &http.Transport{
			MaxIdleConns:        cfg.MaxIdleConns,
			MaxIdleConnsPerHost: cfg.MaxIdleConns,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	return &Client{
		base: baseURL,
		// Redirects are protocol, not plumbing: an HA follower answers
		// writes with 307 + the leader's address, and the caller decides
		// whether to chase it (HAClient does, with its own retry budget).
		hc: &http.Client{Transport: rt, CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}},
		cfg:      cfg,
		counters: &metrics.ReplicaCounters{},
	}, nil
}

// URL returns the replica base URL.
func (c *Client) URL() string { return c.base }

// Counters returns the client's routing counters (shared with the Pool
// that owns the client).
func (c *Client) Counters() *metrics.ReplicaCounters { return c.counters }

// toWire builds the /v2 query object for req.
func toWire(req search.Request) server.V2Query {
	return server.V2Query{
		Seeker:        req.Seeker,
		Tags:          req.Tags,
		K:             req.K,
		Beta:          req.Beta,
		Mode:          req.Mode.String(),
		MinScore:      req.MinScore,
		Offset:        req.Offset,
		NoCache:       req.NoCache,
		MaxCacheAgeMS: req.MaxCacheAgeMS,
		Explain:       req.Explain,
	}
}

// post sends one JSON request and decodes the response into out. Status
// and transport handling is the single place wire errors are
// classified: 2xx decodes, 400 becomes ErrInvalid (the replica rejected
// the request content — retrying elsewhere cannot help), everything
// else — connection failures, 5xx, unexpected statuses — becomes
// ErrUnavailable, the failover-eligible class. A failure owned by the
// CALLER's context — cancellation or an expired caller deadline —
// surfaces as that ctx error instead, so a client hanging up or asking
// for less time than the query needs never feeds replica health state
// or triggers failover. Only the per-attempt timeout this client adds
// on top counts against the replica.
func (c *Client) post(parent context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("fleet: encoding %s request: %w", path, err)
	}
	// One span per RPC attempt (a hedged request shows both attempts);
	// on a sampled trace the replica stitches its own spans into ours
	// through the response (see the wire response types' Spans fields).
	parent, sp := obs.StartSpan(parent, "fleet.rpc")
	defer sp.End()
	sp.SetAttr("replica", c.base)
	sp.SetAttr("path", path)
	ctx, cancel := context.WithTimeout(parent, c.cfg.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: building %s request: %w", path, err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	obs.Inject(parent, hreq.Header)
	resp, err := c.hc.Do(hreq)
	if err != nil {
		if perr := parent.Err(); perr != nil {
			return perr
		}
		return unavailablef("%s %s: %v", c.base, path, err)
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		if out == nil || resp.StatusCode == http.StatusNoContent {
			io.Copy(io.Discard, resp.Body)
			return nil
		}
		if err := decodeBody(resp.Body, out); err != nil {
			return unavailablef("%s %s: decoding response: %v", c.base, path, err)
		}
		return nil
	case resp.StatusCode == http.StatusBadRequest:
		return search.WrapInvalid(fmt.Errorf("%s %s: %s", c.base, path, wireErrMessage(resp.Body)))
	case resp.StatusCode == http.StatusConflict:
		return fmt.Errorf("%w: %s %s: %s", ErrBehind, c.base, path, wireErrMessage(resp.Body))
	case resp.StatusCode == http.StatusTemporaryRedirect:
		// An HA follower refusing a write: the Location header names the
		// leader's copy of this endpoint. Surface it as NotLeaderError so
		// leader-tracking callers re-aim instead of failing over.
		return &quorum.NotLeaderError{LeaderURL: strings.TrimSuffix(resp.Header.Get("Location"), path)}
	case resp.StatusCode == http.StatusTooManyRequests:
		// The replica shed the request: it is healthy but at capacity.
		// This class is deliberately NOT ErrUnavailable — failing over
		// would aim the overload at the ring successors — so routers
		// return it to the caller, who retries the same replica after
		// the advertised backoff.
		return search.Overloadedf(parseRetryAfter(resp.Header.Get("Retry-After")),
			"%s %s: %s", c.base, path, wireErrMessage(resp.Body))
	default:
		return unavailablef("%s %s: status %d: %s", c.base, path, resp.StatusCode, wireErrMessage(resp.Body))
	}
}

// decodeBody decodes the JSON value a 2xx body holds and then reads the
// body to its end. The decoder stops at the value's closing brace; a
// chunked answer's terminating chunk lies past it, and the transport
// discards a connection whose body is closed with that unread. The
// servers send nothing after the value, so the bound only keeps a
// misbehaving peer from holding the caller; the limiting readers are
// pooled so that a search RPC allocates no more than before.
func decodeBody(body io.Reader, out interface{}) error {
	err := json.NewDecoder(body).Decode(out)
	rest := drainReaders.Get().(*io.LimitedReader)
	rest.R, rest.N = body, 64<<10
	io.Copy(io.Discard, rest)
	rest.R = nil
	drainReaders.Put(rest)
	return err
}

var drainReaders = sync.Pool{New: func() interface{} { return new(io.LimitedReader) }}

// parseRetryAfter reads a Retry-After header (delta-seconds form; the
// only form our servers emit) into a duration, 0 when absent or
// malformed.
func parseRetryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// wireErrMessage extracts the {"error": ...} body the server sends with
// failure statuses, falling back to the raw (truncated) body.
func wireErrMessage(r io.Reader) string {
	raw, err := io.ReadAll(io.LimitReader(r, 4096))
	if err != nil || len(raw) == 0 {
		return "(no body)"
	}
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(raw))
}

// Do answers one request over POST /v2/search. With hedging configured,
// a duplicate attempt launches after HedgeDelay and the first answer
// wins (the loser is cancelled).
func (c *Client) Do(ctx context.Context, req search.Request) (search.Response, error) {
	if c.cfg.HedgeDelay <= 0 {
		return c.searchOnce(ctx, req)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		resp   search.Response
		err    error
		hedged bool
	}
	ch := make(chan outcome, 2)
	run := func(hedged bool) {
		resp, err := c.searchOnce(ctx, req)
		ch <- outcome{resp: resp, err: err, hedged: hedged}
	}
	go run(false)
	timer := time.NewTimer(c.cfg.HedgeDelay)
	defer timer.Stop()
	pending := 1
	hedged := false
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				pending++
				c.counters.HedgeLaunched()
				go run(true)
			}
		case o := <-ch:
			pending--
			if o.err == nil {
				if o.hedged {
					c.counters.HedgeWon()
				}
				return o.resp, nil
			}
			if errors.Is(o.err, search.ErrOverloaded) {
				// A shed is decisive: the replica is alive and refusing
				// work, so a duplicate attempt would only add to the
				// overload. Return it without waiting for (or launching)
				// a hedge.
				return search.Response{}, o.err
			}
			if firstErr == nil {
				firstErr = o.err
			}
			if pending == 0 {
				return search.Response{}, firstErr
			}
			// One attempt failed but another is in flight: drain the
			// timer case by looping — the hedge may still answer.
		}
	}
}

func (c *Client) searchOnce(ctx context.Context, req search.Request) (search.Response, error) {
	var out server.V2SearchResponse
	if err := c.post(ctx, "/v2/search", toWire(req), &out); err != nil {
		return search.Response{}, err
	}
	// On a sampled trace the replica's span data rides the response; fold
	// it into the live trace here, so it never surfaces to the caller.
	obs.MergeRemote(ctx, out.Spans)
	if out.Results == nil {
		out.Results = []search.Result{}
	}
	return search.Response{Results: out.Results, Explain: out.Explain}, nil
}

// entryErr reconstructs the typed error a batch entry carried on the
// wire: the class decides failover (unavailable) vs return-to-caller
// (invalid, overloaded — a shed entry keeps its Retry-After hint so
// the front-end's own response can re-emit it). An unclassified error
// stays opaque: no failover, no special status.
func entryErr(e server.V2BatchEntry) error {
	switch e.ErrorKind {
	case server.ErrKindInvalid:
		return search.WrapInvalid(errors.New(e.Error))
	case server.ErrKindOverloaded:
		return search.Overloadedf(time.Duration(e.RetryAfterMS)*time.Millisecond, "%s", e.Error)
	case server.ErrKindUnavailable:
		return unavailablef("%s", e.Error)
	default:
		return errors.New(e.Error)
	}
}

// DoBatch answers many requests over POST /v2/search/batch. Per-query
// errors come back per entry; a whole-batch transport failure marks
// every entry ErrUnavailable so a pool can re-route the batch.
func (c *Client) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	out := make([]search.BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	wire := server.V2BatchRequest{Queries: make([]server.V2Query, len(reqs))}
	for i, r := range reqs {
		wire.Queries[i] = toWire(r)
	}
	var resp server.V2BatchResponse
	if err := c.post(ctx, "/v2/search/batch", wire, &resp); err != nil {
		for i := range out {
			out[i] = search.BatchResult{Err: err}
		}
		return out
	}
	obs.MergeRemote(ctx, resp.Spans)
	if len(resp.Results) != len(reqs) {
		err := unavailablef("%s /v2/search/batch: %d answers for %d queries", c.base, len(resp.Results), len(reqs))
		for i := range out {
			out[i] = search.BatchResult{Err: err}
		}
		return out
	}
	for i, e := range resp.Results {
		if e.Error != "" {
			out[i] = search.BatchResult{Err: entryErr(e)}
			continue
		}
		results := e.Results
		if results == nil {
			results = []search.Result{}
		}
		out[i] = search.BatchResult{Response: search.Response{Results: results, Explain: e.Explain}}
	}
	return out
}

// Healthz probes GET /healthz. A nil error means the replica process is
// alive; the returned LSN is the replica's self-reported replication
// cursor (the X-Applied-LSN header, 0 when the replica does not report
// one) — health probes double as replication lag probes.
func (c *Client) Healthz(ctx context.Context) (uint64, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, unavailablef("%s /healthz: %v", c.base, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return 0, unavailablef("%s /healthz: status %d", c.base, resp.StatusCode)
	}
	applied, _ := strconv.ParseUint(resp.Header.Get("X-Applied-LSN"), 10, 64)
	return applied, nil
}

// Befriend forwards one friendship mutation to the replica, stamped
// with its replication log sequence number: the replica applies it with
// idempotent dedup and strict ordering (out-of-order records fail with
// ErrBehind) and the returned LSN is the replica's cursor after the
// record was processed. (lsn 0 is a client's plain mutation, as
// cmd/loadtest aims at a front door: answered 204, cursor 0.)
func (c *Client) Befriend(ctx context.Context, a, b string, weight float64, lsn uint64) (uint64, error) {
	return c.postStamped(ctx, "/v1/friend", server.FriendRequest{A: a, B: b, Weight: weight, LSN: lsn})
}

// Tag forwards one tagging mutation to the replica; lsn as in Befriend.
func (c *Client) Tag(ctx context.Context, user, item, tag string, lsn uint64) (uint64, error) {
	return c.postStamped(ctx, "/v1/tag", server.TagRequest{User: user, Item: item, Tag: tag, LSN: lsn})
}

// Skip advances the replica's replication cursor past a record that is
// a no-op for it (POST /v1/skip): a quorum RecTerm leadership record,
// or a mutation every replica deterministically rejects. Same dedup
// and ordering contract as the stamped mutation calls; returns the
// replica's cursor after the skip.
func (c *Client) Skip(ctx context.Context, lsn uint64) (uint64, error) {
	return c.postStamped(ctx, "/v1/skip", server.SkipRequest{LSN: lsn})
}

// postStamped sends one replication apply and returns the cursor the
// replica acknowledged, folding the replica's span data for a traced
// apply into the live trace.
func (c *Client) postStamped(ctx context.Context, path string, in interface{}) (uint64, error) {
	var out server.AppliedResponse
	if err := c.post(ctx, path, in, &out); err != nil {
		return 0, err
	}
	obs.MergeRemote(ctx, out.Spans)
	return out.AppliedLSN, nil
}

// Invalidate POSTs the replica's /v2/invalidate — with no edges and all
// false, the compaction heartbeat — and returns the number of cached
// horizons the named edges (or all) dropped.
func (c *Client) Invalidate(ctx context.Context, edges [][2]string, all bool) (int, error) {
	var out server.InvalidateResponse
	if err := c.post(ctx, "/v2/invalidate", server.InvalidateRequest{Edges: edges, All: all}, &out); err != nil {
		return 0, err
	}
	return out.Dropped, nil
}

// SnapshotReader opens the replica's bootstrap export (GET
// /v2/snapshot): the returned reader streams the binary snapshot and
// the LSN is the replication cursor it is pinned at. The caller owns
// closing the reader. Unlike the query calls, no per-attempt timeout is
// layered on — a bootstrap transfer legitimately outlives the RPC
// budget — so the caller's ctx is the only bound.
func (c *Client) SnapshotReader(ctx context.Context) (io.ReadCloser, uint64, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v2/snapshot", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, 0, unavailablef("%s /v2/snapshot: %v", c.base, err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		return nil, 0, unavailablef("%s /v2/snapshot: status %d: %s", c.base, resp.StatusCode, wireErrMessage(resp.Body))
	}
	lsn, err := strconv.ParseUint(resp.Header.Get("X-Snapshot-LSN"), 10, 64)
	if err != nil {
		resp.Body.Close()
		return nil, 0, unavailablef("%s /v2/snapshot: bad X-Snapshot-LSN %q", c.base, resp.Header.Get("X-Snapshot-LSN"))
	}
	return resp.Body, lsn, nil
}

// ImportSnapshot streams a bootstrap snapshot into the replica (POST
// /v2/snapshot), replacing its entire state; returns the replica's
// cursor after the import (the stream's pinned LSN). Caller's ctx is
// the only time bound (see SnapshotReader).
func (c *Client) ImportSnapshot(ctx context.Context, r io.Reader) (uint64, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/snapshot", r)
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, unavailablef("%s /v2/snapshot: %v", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, unavailablef("%s /v2/snapshot: status %d: %s", c.base, resp.StatusCode, wireErrMessage(resp.Body))
	}
	var out server.AppliedResponse
	if err := decodeBody(resp.Body, &out); err != nil {
		return 0, unavailablef("%s /v2/snapshot: decoding response: %v", c.base, err)
	}
	return out.AppliedLSN, nil
}

// CachedSeekers lists the replica's resident cached seekers (GET
// /v2/cache/seekers), hottest first per cache stripe — the enumeration half
// of the resize pre-warm.
func (c *Client) CachedSeekers(ctx context.Context) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v2/cache/seekers", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, unavailablef("%s /v2/cache/seekers: %v", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, unavailablef("%s /v2/cache/seekers: status %d", c.base, resp.StatusCode)
	}
	var out struct {
		Seekers []string `json:"seekers"`
	}
	if err := decodeBody(resp.Body, &out); err != nil {
		return nil, unavailablef("%s /v2/cache/seekers: decoding response: %v", c.base, err)
	}
	return out.Seekers, nil
}

// WarmSeekers asks the replica to materialize the given seekers'
// horizons into its cache (POST /v2/cache/warm) and returns how many
// were installed. Caller's ctx is the only time bound — warming a large
// slice legitimately outlives one RPC budget.
func (c *Client) WarmSeekers(ctx context.Context, seekers []string) (int, error) {
	in := struct {
		Seekers []string `json:"seekers"`
	}{Seekers: seekers}
	body, err := json.Marshal(in)
	if err != nil {
		return 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v2/cache/warm", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return 0, unavailablef("%s /v2/cache/warm: %v", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, unavailablef("%s /v2/cache/warm: status %d: %s", c.base, resp.StatusCode, wireErrMessage(resp.Body))
	}
	var out struct {
		Warmed int `json:"warmed"`
	}
	if err := decodeBody(resp.Body, &out); err != nil {
		return 0, unavailablef("%s /v2/cache/warm: decoding response: %v", c.base, err)
	}
	return out.Warmed, nil
}

// Users fetches the replica's known user names.
func (c *Client) Users(ctx context.Context) ([]string, error) {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.Timeout)
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/users", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, unavailablef("%s /v1/users: %v", c.base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, unavailablef("%s /v1/users: status %d", c.base, resp.StatusCode)
	}
	var out struct {
		Users []string `json:"users"`
	}
	if err := decodeBody(resp.Body, &out); err != nil {
		return nil, unavailablef("%s /v1/users: decoding response: %v", c.base, err)
	}
	return out.Users, nil
}

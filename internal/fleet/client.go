// Package fleet is the multi-process serving fleet: N replica
// processes (each a social.Service behind internal/server, volatile or
// journaled) run the full engine over the same mutation stream, a front-end routes queries to
// the replica owning each seeker (consistent hashing, so exactly one
// replica pays a seeker's horizon expansion), health checking ejects
// dead replicas and spills their seekers across the survivors in ring
// order, and a compaction heartbeat streams every replica the log
// records past its cursor in POST /v2/apply pages, the last of which
// tells it to fold them into its snapshot, dropping — by the
// friendships pending in its own overlay — exactly the cached horizons
// they could affect.
//
// The pieces compose left to right:
//
//	Client      — search.Searcher over one replica's /v2 HTTP surface
//	              (pooled connections, per-attempt timeout)
//	Pool        — replica registry + /healthz prober + failover router
//	              (itself a search.Searcher)
//	Broadcaster — coalesces writes into one compaction heartbeat,
//	              which carries their records
//	Frontend    — server.Backend (in the server.Frontend role) gluing
//	              Pool + Broadcaster + its log (a quorum.Node: one
//	              member, or an HA member) together, so cmd/friendserve
//	              -replicas serves the same API as a single process;
//	              its one mutation path validates with the replicas'
//	              own rule (social.Mutation.Validate), commits the
//	              record to the log and acks; the heartbeat and
//	              catch-up deliver it by the one per-replica stream.
//	              No log attached, no writes.
//
// Soundness of the heartbeat is argued in docs/fleet.md: the log orders
// mutations, every replica applies the same stream in the same order,
// and a replica only ever compacts edges it noted itself —
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
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/social"
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

// ClientConfig tunes a replica client.
type ClientConfig struct {
	// Timeout bounds one HTTP attempt (0 = DefaultTimeout). The caller's
	// ctx can cut it shorter, never longer.
	Timeout time.Duration
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
	if cfg.Timeout < 0 || cfg.MaxIdleConns < 0 {
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
		// whether to chase it (any 307-following HTTP client does).
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

// post sends one JSON request under the per-attempt timeout and
// decodes the response into out (nil: discard it). Only the per-attempt
// timeout this client adds counts against the replica; a failure owned
// by the caller's context surfaces as that ctx error (see send).
func (c *Client) post(parent context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("fleet: encoding %s request: %w", path, err)
	}
	// One span per RPC attempt; on a sampled trace the replica stitches
	// its own spans into ours through the response (see the wire
	// response types' Spans fields).
	parent, sp := obs.StartSpan(parent, "fleet.rpc")
	defer sp.End()
	sp.SetAttr("replica", c.base)
	sp.SetAttr("path", path)
	ctx, cancel := context.WithTimeout(parent, c.cfg.Timeout)
	defer cancel()
	hreq, err := c.newRequest(ctx, http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	obs.Inject(parent, hreq.Header)
	resp, err := c.send(parent, hreq)
	if err != nil {
		return err
	}
	return c.receive(resp, out)
}

// get fetches path under the per-attempt timeout, decodes its JSON
// answer into out (nil: discard it) and returns the response headers.
func (c *Client) get(parent context.Context, path string, out interface{}) (http.Header, error) {
	ctx, cancel := context.WithTimeout(parent, c.cfg.Timeout)
	defer cancel()
	hreq, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(parent, hreq)
	if err != nil {
		return nil, err
	}
	return resp.Header, c.receive(resp, out)
}

// newRequest builds a request for one replica endpoint; a body is sent
// as JSON unless the caller sets another Content-Type.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, fmt.Errorf("fleet: building %s request: %w", path, err)
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	return hreq, nil
}

// send issues one request and is the single place wire errors are
// classified: a 2xx response is returned for the caller to read and
// close; 400 becomes ErrInvalid (the replica rejected the request
// content — retrying elsewhere cannot help), 307 a NotLeaderError, 429
// an overload carrying its backoff hint, and everything else —
// connection failures, 5xx, a gap-refused apply page (409), unexpected
// statuses — ErrUnavailable, the failover-eligible class. A failure owned by the
// CALLER's context (parent) — cancellation or an expired caller
// deadline — surfaces as that ctx error instead, so a client hanging up
// or asking for less time than the request needs never feeds replica
// health state or triggers failover.
func (c *Client) send(parent context.Context, hreq *http.Request) (*http.Response, error) {
	path := hreq.URL.Path
	resp, err := c.hc.Do(hreq)
	if err != nil {
		if perr := parent.Err(); perr != nil {
			return nil, perr
		}
		return nil, unavailablef("%s %s: %v", c.base, path, err)
	}
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusBadRequest:
		return nil, search.WrapInvalid(fmt.Errorf("%s %s: %s", c.base, path, wireErrMessage(resp.Body)))
	case http.StatusTemporaryRedirect:
		// An HA follower refusing a write: the Location header names the
		// leader's copy of this endpoint. Surface it as NotLeaderError so
		// leader-tracking callers re-aim instead of failing over.
		return nil, &quorum.NotLeaderError{LeaderURL: strings.TrimSuffix(resp.Header.Get("Location"), path)}
	case http.StatusTooManyRequests:
		// The replica shed the request: it is healthy but at capacity.
		// This class is deliberately NOT ErrUnavailable — failing over
		// would aim the overload at the ring successors — so routers
		// return it to the caller, who retries the same replica after
		// the advertised backoff.
		return nil, search.Overloadedf(parseRetryAfter(resp.Header.Get("Retry-After")),
			"%s %s: %s", c.base, path, wireErrMessage(resp.Body))
	default:
		return nil, unavailablef("%s %s: status %d: %s", c.base, path, resp.StatusCode, wireErrMessage(resp.Body))
	}
}

// receive decodes a 2xx response's JSON body into out (nil, or a 204:
// discard it) and closes it; an undecodable answer is ErrUnavailable.
// The body is read to its end first, so the transport keeps the
// connection, into a pooled buffer the decoded value does not keep.
func (c *Client) receive(resp *http.Response, out interface{}) error {
	defer resp.Body.Close()
	if out == nil || resp.StatusCode == http.StatusNoContent {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	err := server.ReadBody(resp.Body, resp.ContentLength, func(body []byte, err error) error {
		if err != nil {
			return err
		}
		return decodeAnswer(body, out)
	})
	if err != nil {
		return unavailablef("%s %s: decoding response: %v", c.base, resp.Request.URL.Path, err)
	}
	return nil
}

// decodeAnswer decodes a response body: the two search answers by
// server's hand codec, anything else by encoding/json.
func decodeAnswer(body []byte, out interface{}) error {
	switch v := out.(type) {
	case *server.V2SearchResponse:
		return server.DecodeSearchResponse(body, v)
	case *server.V2BatchResponse:
		return server.DecodeBatchResponse(body, v)
	default:
		return json.Unmarshal(body, out)
	}
}

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

// Do answers one request over POST /v2/search.
func (c *Client) Do(ctx context.Context, req search.Request) (search.Response, error) {
	q := toWire(req)
	var out server.V2SearchResponse
	if err := c.post(ctx, "/v2/search", &q, &out); err != nil {
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
	if err := c.post(ctx, "/v2/search/batch", &wire, &resp); err != nil {
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
	h, err := c.get(ctx, "/healthz", nil)
	if err != nil {
		return 0, err
	}
	applied, _ := strconv.ParseUint(h.Get("X-Applied-LSN"), 10, 64)
	return applied, nil
}

// Befriend and Tag send one mutation to the replica. They are kept only
// because benchmarks/fleetbench (its fleet.rpc_write_us probe) compiles
// against them. lsn 0 sends the plain /v1 write cmd/loadtest aims at a
// front door (answered 204, cursor 0); lsn > 0 sends a one-record apply
// page and returns the replica's cursor after it.
func (c *Client) Befriend(ctx context.Context, a, b string, weight float64, lsn uint64) (uint64, error) {
	return c.write(ctx, "/v1/friend", server.FriendRequest{A: a, B: b, Weight: weight},
		social.Mutation{Kind: social.KindBefriend, LSN: lsn, User: a, Friend: b, Weight: weight})
}

// Tag is Befriend for a tagging mutation.
func (c *Client) Tag(ctx context.Context, user, item, tag string, lsn uint64) (uint64, error) {
	return c.write(ctx, "/v1/tag", server.TagRequest{User: user, Item: item, Tag: tag},
		social.Mutation{Kind: social.KindTag, LSN: lsn, User: user, Item: item, Tag: tag})
}

func (c *Client) write(ctx context.Context, path string, plain interface{}, m social.Mutation) (uint64, error) {
	if m.LSN == 0 {
		return 0, c.post(ctx, path, plain, nil)
	}
	var out server.AppliedResponse
	err := c.post(ctx, "/v2/apply", server.ApplyRequest{Records: []social.Mutation{m}}, &out)
	return out.AppliedLSN, err
}

// SnapshotReader opens the replica's bootstrap export (GET
// /v2/snapshot): the returned reader streams the binary snapshot and
// the LSN is the replication cursor it is pinned at. The caller owns
// closing the reader. Unlike the query calls, no per-attempt timeout is
// layered on — a bootstrap transfer legitimately outlives the RPC
// budget — so the caller's ctx is the only bound.
func (c *Client) SnapshotReader(ctx context.Context) (io.ReadCloser, uint64, error) {
	hreq, err := c.newRequest(ctx, http.MethodGet, "/v2/snapshot", nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.send(ctx, hreq)
	if err != nil {
		return nil, 0, err
	}
	lsn, err := strconv.ParseUint(resp.Header.Get(server.SnapshotLSNHeader), 10, 64)
	if err != nil {
		resp.Body.Close()
		return nil, 0, unavailablef("%s /v2/snapshot: bad %s %q", c.base, server.SnapshotLSNHeader, resp.Header.Get(server.SnapshotLSNHeader))
	}
	return resp.Body, lsn, nil
}

// ImportSnapshot streams a bootstrap snapshot into the replica (POST
// /v2/snapshot), replacing its entire state; returns the replica's
// cursor after the import (the stream's pinned LSN). Caller's ctx is
// the only time bound (see SnapshotReader).
func (c *Client) ImportSnapshot(ctx context.Context, r io.Reader) (uint64, error) {
	hreq, err := c.newRequest(ctx, http.MethodPost, "/v2/snapshot", r)
	if err != nil {
		return 0, err
	}
	hreq.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.send(ctx, hreq)
	if err != nil {
		return 0, err
	}
	var out server.AppliedResponse
	if err := c.receive(resp, &out); err != nil {
		return 0, err
	}
	return out.AppliedLSN, nil
}

// CachedSeekers lists the replica's resident cached seekers (GET
// /v2/cache/seekers), hottest first per cache stripe — the enumeration half
// of the resize pre-warm.
func (c *Client) CachedSeekers(ctx context.Context) ([]string, error) {
	var out struct {
		Seekers []string `json:"seekers"`
	}
	if _, err := c.get(ctx, "/v2/cache/seekers", &out); err != nil {
		return nil, err
	}
	return out.Seekers, nil
}

// WarmSeekers asks the replica to materialize the given seekers'
// horizons into its cache (POST /v2/cache/warm) and returns how many
// were installed. Caller's ctx is the only time bound — warming a large
// slice legitimately outlives one RPC budget.
func (c *Client) WarmSeekers(ctx context.Context, seekers []string) (int, error) {
	body, err := json.Marshal(struct {
		Seekers []string `json:"seekers"`
	}{Seekers: seekers})
	if err != nil {
		return 0, err
	}
	hreq, err := c.newRequest(ctx, http.MethodPost, "/v2/cache/warm", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := c.send(ctx, hreq)
	if err != nil {
		return 0, err
	}
	var out struct {
		Warmed int `json:"warmed"`
	}
	if err := c.receive(resp, &out); err != nil {
		return 0, err
	}
	return out.Warmed, nil
}

// Users fetches the replica's known user names.
func (c *Client) Users(ctx context.Context) ([]string, error) {
	var out struct {
		Users []string `json:"users"`
	}
	if _, err := c.get(ctx, "/v1/users", &out); err != nil {
		return nil, err
	}
	return out.Users, nil
}

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
//	              for the front-end's search bytes
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
	"net/url"
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
//
// Requests go straight to the RoundTripper. http.Client would add only
// redirect bookkeeping, and the client follows no redirect: an HA
// follower answers a write with 307 and the leader's address, and the
// caller decides whether to chase it. Nor does it keep a cookie jar or
// a client-wide timeout; each attempt runs under its own deadline.
type Client struct {
	base string
	rt   http.RoundTripper
	// searchURL and batchURL are the two search endpoints' URLs, parsed
	// once; requests share them read-only.
	searchURL, batchURL *url.URL
	cfg                 ClientConfig
	counters            *metrics.ReplicaCounters
}

var _ search.Searcher = (*Client)(nil)

// The headers of the hop's requests, shared read-only by all of them: a
// RoundTripper only reads a request's header, and one is copied only to
// inject a traceparent. Each asks for the identity encoding, so an
// answer arrives as the replica wrote it, through any proxy, and
// http.Transport adds no Accept-Encoding of its own: it would ask for
// gzip and decompress the answer, at a header map per request.
var (
	jsonHeader   = http.Header{"Content-Type": {"application/json"}, "Accept-Encoding": {"identity"}}
	getHeader    = http.Header{"Accept-Encoding": {"identity"}}
	streamHeader = http.Header{"Content-Type": {"application/octet-stream"}, "Accept-Encoding": {"identity"}}
)

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
	searchURL, err := url.Parse(baseURL + "/v2/search")
	if err != nil {
		return nil, fmt.Errorf("fleet: replica URL %q: %w", baseURL, err)
	}
	// http.Client would send userinfo as Basic auth; requests here go
	// straight to the RoundTripper, which does not.
	if searchURL.User != nil {
		return nil, fmt.Errorf("fleet: replica URL for %s carries credentials", searchURL.Host)
	}
	batchURL, err := url.Parse(baseURL + "/v2/search/batch")
	if err != nil {
		return nil, fmt.Errorf("fleet: replica URL %q: %w", baseURL, err)
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
		base:      baseURL,
		rt:        rt,
		searchURL: searchURL,
		batchURL:  batchURL,
		cfg:       cfg,
		counters:  &metrics.ReplicaCounters{},
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

// postJSON sends in as one JSON request (see post) and decodes the
// answer into out (nil: discard it).
func (c *Client) postJSON(parent context.Context, path string, in, out interface{}) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("fleet: encoding %s request: %w", path, err)
	}
	if out == nil {
		return c.post(parent, path, body, nil)
	}
	return c.post(parent, path, body, func(answer []byte) error { return json.Unmarshal(answer, out) })
}

// post sends one JSON request body under the per-attempt timeout and
// hands the answer to use (see receive). Only the per-attempt timeout
// this client adds counts against the replica; a failure owned by the
// caller's context surfaces as that ctx error (see send).
func (c *Client) post(parent context.Context, path string, body []byte, use func(answer []byte) error) error {
	// One span per RPC attempt; on a sampled trace the replica returns
	// its own spans in a response header, stitched into ours here.
	parent, sp := obs.StartSpan(parent, "fleet.rpc")
	defer sp.End()
	sp.SetAttr("replica", c.base)
	sp.SetAttr("path", path)
	ctx, cancel := context.WithTimeout(parent, c.cfg.Timeout)
	defer cancel()
	hreq, err := c.newRequest(ctx, http.MethodPost, path, jsonHeader, body)
	if err != nil {
		return err
	}
	if tp := obs.Traceparent(parent); tp != "" {
		hreq.Header = hreq.Header.Clone()
		hreq.Header.Set(obs.TraceparentHeader, tp)
	}
	resp, err := c.send(parent, hreq)
	if err != nil {
		return err
	}
	if sp != nil {
		obs.MergeSpansHeader(parent, resp.Header)
	}
	return c.receive(resp, use)
}

// get fetches path under the per-attempt timeout, decodes its JSON
// answer into out (nil: discard it) and returns the response headers.
func (c *Client) get(parent context.Context, path string, out interface{}) (http.Header, error) {
	ctx, cancel := context.WithTimeout(parent, c.cfg.Timeout)
	defer cancel()
	hreq, err := c.newRequest(ctx, http.MethodGet, path, getHeader, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(parent, hreq)
	if err != nil {
		return nil, err
	}
	if out == nil {
		return resp.Header, c.receive(resp, nil)
	}
	return resp.Header, c.receive(resp, func(answer []byte) error { return json.Unmarshal(answer, out) })
}

// newRequest builds a request for the replica endpoint at path over
// the shared header h and, unless it is empty, body, which the request
// only reads. The search endpoints' URLs are the ones NewClient parsed.
func (c *Client) newRequest(ctx context.Context, method, path string, h http.Header, body []byte) (*http.Request, error) {
	var u *url.URL
	switch path {
	case "/v2/search":
		u = c.searchURL
	case "/v2/search/batch":
		u = c.batchURL
	default:
		var err error
		if u, err = url.Parse(c.base + path); err != nil {
			return nil, fmt.Errorf("fleet: building %s request: %w", path, err)
		}
	}
	hreq := &http.Request{
		Method:     method,
		URL:        u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     h,
		Host:       u.Host,
	}
	if len(body) > 0 {
		// The body's type is one http.Transport knows to be in memory,
		// so it writes the body with the header in one write.
		hreq.ContentLength = int64(len(body))
		hreq.Body = io.NopCloser(bytes.NewReader(body))
		// The transport resends a request it could not write on a reused
		// connection only if it can rewind the body.
		hreq.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	return hreq.WithContext(ctx), nil
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
// health state or triggers failover. A transport error reads as
// http.Client would report it, wrapped in a *url.Error.
func (c *Client) send(parent context.Context, hreq *http.Request) (*http.Response, error) {
	path := hreq.URL.Path
	resp, err := c.rt.RoundTrip(hreq)
	if err != nil {
		if perr := parent.Err(); perr != nil {
			return nil, perr
		}
		op := hreq.Method[:1] + strings.ToLower(hreq.Method[1:])
		return nil, unavailablef("%s %s: %v", c.base, path, &url.Error{Op: op, URL: hreq.URL.String(), Err: err})
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

// receive hands a 2xx response's body to use (nil, or a 204: discard
// it) and closes it; an answer use refuses is ErrUnavailable. The body
// is read to its end first, so the transport keeps the connection, into
// a pooled buffer use must not keep.
func (c *Client) receive(resp *http.Response, use func(answer []byte) error) error {
	defer resp.Body.Close()
	if use == nil || resp.StatusCode == http.StatusNoContent {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	err := server.ReadBody(resp.Body, resp.ContentLength, func(body []byte, err error) error {
		if err != nil {
			return err
		}
		return use(body)
	})
	if err != nil {
		return unavailablef("%s %s: decoding response: %v", c.base, resp.Request.URL.Path, err)
	}
	return nil
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

// search posts body, one query's JSON, to /v2/search and appends the
// answer to dst as it came. An answer that does not open and close as a
// plain one is the replica's fault, as one that does not decode is.
func (c *Client) search(ctx context.Context, body, dst []byte) ([]byte, error) {
	n := len(dst)
	err := c.post(ctx, "/v2/search", body, func(answer []byte) error {
		if !bytes.HasPrefix(answer, []byte(`{"results":[`)) || !bytes.HasSuffix(answer, []byte("}\n")) {
			return errNotPlain
		}
		dst = append(dst[:n], answer...)
		return nil
	})
	return dst, err
}

// errNotPlain refuses a search answer that is not a plain one.
var errNotPlain = errors.New("not a plain search answer")

// Do answers one request over POST /v2/search.
func (c *Client) Do(ctx context.Context, req search.Request) (search.Response, error) {
	return answerQuery(req, func(body []byte) ([]byte, error) { return c.search(ctx, body, nil) })
}

// answerQuery is a Do: send posts req's JSON to a replica and returns
// the answer, which answerQuery decodes.
func answerQuery(req search.Request, send func(body []byte) ([]byte, error)) (search.Response, error) {
	body, err := json.Marshal(toWire(req))
	if err != nil {
		return search.Response{}, fmt.Errorf("fleet: encoding query: %w", err)
	}
	answer, err := send(body)
	if err != nil {
		return search.Response{}, err
	}
	var out server.V2SearchResponse
	if err := json.Unmarshal(answer, &out); err != nil {
		return search.Response{}, unavailablef("decoding /v2/search answer: %v", err)
	}
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
// every entry ErrUnavailable.
func (c *Client) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	return answerBatch(reqs, func(queries []string, entries [][]byte) []search.BatchResult {
		out := make([]search.BatchResult, len(reqs))
		members := make([]int, len(reqs))
		for i := range members {
			members[i] = i
		}
		c.forwardBatch(ctx, queries, members, out, entries)
		return out
	})
}

// answerBatch is a DoBatch: send answers the queries' JSON, setting
// entries[i] to query i's entry as a replica wrote it, and answerBatch
// decodes the entries of the queries that did not fail.
func answerBatch(reqs []search.Request, send func(queries []string, entries [][]byte) []search.BatchResult) []search.BatchResult {
	out := make([]search.BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	queries := make([]string, len(reqs))
	for i, r := range reqs {
		q, err := json.Marshal(toWire(r))
		if err != nil {
			err = fmt.Errorf("fleet: encoding query %d: %w", i, err)
			for j := range out {
				out[j] = search.BatchResult{Err: err}
			}
			return out
		}
		queries[i] = string(q)
	}
	entries := make([][]byte, len(reqs))
	out = send(queries, entries)
	for i, raw := range entries {
		var e server.V2BatchEntry
		switch {
		case out[i].Err != nil || raw == nil:
		case json.Unmarshal(raw, &e) != nil:
			out[i].Err = unavailablef("decoding /v2/search/batch entry %d", i)
		default:
			if e.Results == nil {
				e.Results = []search.Result{}
			}
			out[i].Response = search.Response{Results: e.Results, Explain: e.Explain}
		}
	}
	return out
}

// forwardBatch posts the queries at members (queries[i] is query i's own
// JSON) as one /v2/search/batch part and answers them: member j's entry
// goes verbatim into entries[members[j]], and its result carries the
// entry's error, if any (server.SplitBatchAnswer). Where the part
// failed, the result is the error and the entry nil.
func (c *Client) forwardBatch(ctx context.Context, queries []string, members []int, out []search.BatchResult, entries [][]byte) {
	size := len(`{"queries":[]}`) + len(members) - 1
	for _, i := range members {
		size += len(queries[i])
	}
	body := append(make([]byte, 0, size), `{"queries":[`...)
	for j, i := range members {
		if j > 0 {
			body = append(body, ',')
		}
		body = append(body, queries[i]...)
	}
	body = append(body, "]}"...)
	err := c.post(ctx, "/v2/search/batch", body, func(answer []byte) error {
		// The entries outlive the pooled answer: they point into a copy.
		failed, err := server.SplitBatchAnswer(bytes.Clone(answer), members, entries)
		if err != nil {
			return err
		}
		for j, i := range members {
			out[i] = search.BatchResult{}
			if failed != nil && failed[j].Error != "" {
				out[i].Err = entryErr(failed[j])
			}
		}
		return nil
	})
	if err != nil {
		for _, i := range members {
			out[i], entries[i] = search.BatchResult{Err: err}, nil
		}
	}
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
		return 0, c.postJSON(ctx, path, plain, nil)
	}
	var out server.AppliedResponse
	err := c.postJSON(ctx, "/v2/apply", server.ApplyRequest{Records: []social.Mutation{m}}, &out)
	return out.AppliedLSN, err
}

// SnapshotReader opens the replica's bootstrap export (GET
// /v2/snapshot): the returned reader streams the binary snapshot and
// the LSN is the replication cursor it is pinned at. The caller owns
// closing the reader. Unlike the query calls, no per-attempt timeout is
// layered on — a bootstrap transfer legitimately outlives the RPC
// budget — so the caller's ctx is the only bound.
func (c *Client) SnapshotReader(ctx context.Context) (io.ReadCloser, uint64, error) {
	hreq, err := c.newRequest(ctx, http.MethodGet, "/v2/snapshot", getHeader, nil)
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
	hreq, err := c.newRequest(ctx, http.MethodPost, "/v2/snapshot", streamHeader, nil)
	if err != nil {
		return 0, err
	}
	// A stream of unknown length, sent chunked, as http.NewRequest sends
	// a reader it cannot size.
	rc, ok := r.(io.ReadCloser)
	if !ok {
		rc = io.NopCloser(r)
	}
	hreq.Body = rc
	resp, err := c.send(ctx, hreq)
	if err != nil {
		return 0, err
	}
	var out server.AppliedResponse
	if err := c.receive(resp, func(answer []byte) error { return json.Unmarshal(answer, &out) }); err != nil {
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
	hreq, err := c.newRequest(ctx, http.MethodPost, "/v2/cache/warm", jsonHeader, body)
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
	if err := c.receive(resp, func(answer []byte) error { return json.Unmarshal(answer, &out) }); err != nil {
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

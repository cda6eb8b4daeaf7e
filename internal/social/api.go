package social

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/qcache"
	"repro/internal/search"
)

// Service implements search.Searcher: Do is the canonical query entry
// point.
var _ search.Searcher = (*Service)(nil)

// doScratch is the per-query working storage Do recycles through the
// service pool: id buffers, the engine answer, the name-translated
// result buffer and the explain record. With it, a warm cached query
// touches the allocator only if the caller asked for an Explain copy.
type doScratch struct {
	tagIDs []int32
	ans    core.Answer
	named  []search.Result
	ex     search.Explain
}

// Do answers one request. The request is validated and canonicalized by
// search.Request.Normalize — the single place k defaulting, tag
// normalization and knob range checks live. Every mode runs the same
// path: the paper's network-aware merge with refined scores over the
// seeker's horizon, through the seeker-horizon cache. With unbounded
// horizons the answer equals the ExactSocial oracle's, whatever
// req.Mode says; the mode is only echoed in the Explain record.
//
// A non-nil req.Beta re-blends social and global scoring for this query
// only. Cancellation: ctx is checked before name resolution and at the
// engine's checkpoints inside horizon expansion and the merge loops.
func (s *Service) Do(ctx context.Context, req search.Request) (search.Response, error) {
	var resp search.Response
	if err := s.DoInto(ctx, req, &resp); err != nil {
		return search.Response{}, err
	}
	return resp, nil
}

// DoInto is Do writing into a caller-owned Response: resp.Results is
// reused (truncated and appended to) and resp.Explain is cleared unless
// the request asks for one. A caller that recycles the Response across
// queries runs the whole warm cached read path without allocating —
// the engine working state, the horizon adapter and the result
// translation all come from pools or the response itself.
func (s *Service) DoInto(ctx context.Context, req search.Request, resp *search.Response) error {
	if err := req.Normalize(); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	// A journaled service's reads see every acknowledged write (a
	// volatile one's see the last compacted snapshot): fold pending
	// writes in first, which one atomic load shows to be nothing to do
	// on all but the first read after a write.
	if s.journal != nil && s.writes.Load() != 0 {
		if err := s.Flush(); err != nil {
			return err
		}
	}

	sc, _ := s.scratch.Get().(*doScratch)
	if sc == nil {
		sc = &doScratch{}
	}

	// One span per executed query on a sampled trace; the nil-span fast
	// path keeps the warm read path allocation-free when untraced.
	ctx, sp := obs.StartSpan(ctx, "social.execute")
	err := s.doIntoScratch(ctx, req, resp, sc)
	if sp != nil {
		// The trace outlives the request; its seeker may alias the
		// request body.
		sp.SetAttr("seeker", strings.Clone(req.Seeker))
		sp.SetAttr("algorithm", sc.ex.Algorithm)
		sp.SetBool("cache_hit", sc.ex.CacheHit)
		sp.SetInt("horizon_users", int64(sc.ex.HorizonUsers))
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
	}
	s.scratch.Put(sc)
	return err
}

func (s *Service) doIntoScratch(ctx context.Context, req search.Request, resp *search.Response, sc *doScratch) error {
	// Resolve names and pin the engine snapshot and cache generation
	// together, preferably from the atomically published view — the
	// lock-free fast path. The view's dictionaries are clones taken at
	// the last publish, so any miss (a name added since) falls back
	// wholesale to the locked path, which sees every name.
	// Consistency without the lock comes from the view being immutable:
	// its dictionaries, engine snapshot and cache generation were
	// captured together, and qcache's exact-generation matching turns a
	// stale pinned generation into a clean miss rather than a stale
	// answer.
	var (
		uid    int32
		eng    *core.Engine
		cache  *qcache.Cache
		gen    uint64
		viewOK bool
	)
	v := s.view.Load()
	if id, ok := v.users.ID(req.Seeker); ok {
		sc.tagIDs = sc.tagIDs[:0]
		resolved := true
		for _, t := range req.Tags {
			tid, ok := v.tags.ID(t)
			if !ok {
				resolved = false
				break
			}
			sc.tagIDs = append(sc.tagIDs, tid)
		}
		if resolved {
			uid = id
			eng = v.eng
			if s.cache != nil && !req.NoCache {
				cache, gen = s.cache, v.gen
			}
			viewOK = true
		}
	}
	if !viewOK {
		// Slow path: resolve against the live dictionaries and pin the
		// current view's engine and the cache generation under the
		// lock. This is also where genuinely unknown names become
		// errors.
		s.mu.Lock()
		id, ok := s.names.Users.ID(req.Seeker)
		if !ok {
			s.mu.Unlock()
			return search.WrapInvalid(fmt.Errorf("social: unknown user %q", req.Seeker))
		}
		uid = id
		sc.tagIDs = sc.tagIDs[:0]
		for _, t := range req.Tags {
			tid, ok := s.names.Tags.ID(t)
			if !ok {
				s.mu.Unlock()
				return search.WrapInvalid(fmt.Errorf("social: unknown tag %q", t))
			}
			sc.tagIDs = append(sc.tagIDs, tid)
		}
		eng = s.view.Load().eng
		if s.cache != nil && !req.NoCache {
			cache, gen = s.cache, s.cache.Generation()
		}
		s.mu.Unlock()
	}

	// Per-query β override: rebuild the (cheap, index-free) engine view
	// over the same immutable snapshot. Horizons depend only on the
	// proximity parameters, which are unchanged, so the seeker cache
	// stays valid for the overridden engine.
	qeng := eng
	if req.Beta != nil && *req.Beta != eng.Beta() {
		var err error
		qeng, err = core.NewEngine(eng.Graph(), eng.Store(), core.Config{
			Proximity: eng.ProximityParams(),
			Beta:      *req.Beta,
		})
		if err != nil {
			return err
		}
	}

	sc.ex = search.Explain{Algorithm: "SocialMerge", Mode: req.Mode.String(), Beta: qeng.Beta()}
	q := core.Query{Seeker: uid, Tags: sc.tagIDs, K: req.K + req.Offset}
	maxAge := time.Duration(req.MaxCacheAgeMS) * time.Millisecond
	if err := s.horizonAnswer(ctx, qeng, q, cache, gen, maxAge, &sc.ex, &sc.ans); err != nil {
		return err
	}
	sc.ex.Exact = sc.ans.Exact
	sc.ex.UsersSettled = sc.ans.UsersSettled
	sc.ex.SequentialAccesses = sc.ans.Access.Sequential
	sc.ex.RandomAccesses = sc.ans.Access.Random

	// Translate ids back to names. The dictionaries are append-only, so
	// every id in the snapshot already has a name; on the fast path the
	// view's items clone covers all but ids minted after the publish,
	// and those few retry against the live dictionary under the lock.
	sc.named = sc.named[:0]
	if viewOK {
		for _, r := range sc.ans.Results {
			name, ok := v.items.Name(r.Item)
			if !ok {
				if name, ok = s.lockedItemName(r.Item); !ok {
					return fmt.Errorf("social: unnamed item id %d", r.Item)
				}
			}
			sc.named = append(sc.named, search.Result{Item: name, Score: r.Score})
		}
	} else {
		s.mu.Lock()
		for _, r := range sc.ans.Results {
			name, ok := s.names.Items.Name(r.Item)
			if !ok {
				s.mu.Unlock()
				return fmt.Errorf("social: unnamed item id %d", r.Item)
			}
			sc.named = append(sc.named, search.Result{Item: name, Score: r.Score})
		}
		s.mu.Unlock()
	}

	results := req.Window(sc.named)
	// The windowed view aliases scratch storage; copy into the caller's
	// (reused) buffer. A zero-length make hits the runtime's zero-size
	// slot, keeping the non-nil Results invariant allocation-free.
	if resp.Results == nil {
		resp.Results = make([]search.Result, 0, len(results))
	}
	resp.Results = append(resp.Results[:0], results...)
	if n := len(results); n > 0 {
		sc.ex.ScoreBound = results[n-1].Score
	}
	resp.Explain = nil
	if req.Explain {
		ex := sc.ex
		resp.Explain = &ex
	}
	return nil
}

// lockedItemName resolves one item id against the live dictionary —
// the fast path's fallback for ids minted after the view's clone.
func (s *Service) lockedItemName(id int32) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.names.Items.Name(id)
}

// horizonAnswer runs the merge with refined scores, through the seeker
// cache when one was pinned, filling the horizon half of ex; ans is the
// caller's reused answer. gen is the cache generation captured with the
// snapshot: a cached horizon is used only when valid under that
// generation (and younger than maxAge, when positive), and a freshly
// materialized one is offered back under the same stamp (refused if the
// graph moved meanwhile).
func (s *Service) horizonAnswer(ctx context.Context, eng *core.Engine, q core.Query, cache *qcache.Cache, gen uint64, maxAge time.Duration, ex *search.Explain, ans *core.Answer) error {
	opts := core.Options{RefineScores: true, Ctx: ctx}
	if cache == nil {
		// Caching disabled (or opted out), batched or not: run the lazy
		// incremental expansion — cheaper than materializing a full
		// horizon nobody will reuse.
		return eng.SocialMergeInto(q, opts, ans)
	}
	h, hit := cache.Lookup(q.Seeker, gen, maxAge)
	if !hit {
		var err error
		if h, err = s.materializeSpan(ctx, eng, q.Seeker); err != nil {
			return err
		}
		cache.Put(q.Seeker, gen, h)
	}
	ex.CacheHit = hit
	ex.CacheGeneration = gen
	ex.HorizonUsers = h.Size()
	return eng.SocialMergeWithHorizonInto(q, h, opts, ans)
}

// materializeSpan is MaterializeHorizonCtx under a horizon.materialize
// trace span — cache misses are exactly the expansions worth seeing in
// a trace.
func (s *Service) materializeSpan(ctx context.Context, eng *core.Engine, seeker graph.UserID) (*core.SeekerHorizon, error) {
	_, sp := obs.StartSpan(ctx, "horizon.materialize")
	h, err := eng.MaterializeHorizonCtx(ctx, seeker)
	if sp != nil {
		if h != nil {
			sp.SetInt("users", int64(h.Size()))
		}
		sp.End()
	}
	return h, err
}

// DoBatch answers many requests concurrently on a pool of
// cfg.BatchWorkers workers, returning outcomes in input order with
// per-request error reporting. Requests are grouped by seeker and each
// group runs back-to-back on one worker, so with caching on a run of
// same-seeker queries pays for at most one horizon expansion: the first
// puts the horizon in the cache, the rest hit it. With caching off (or
// NoCache) each request runs the lazy expansion on its own, as Do does.
// Cancellation is honoured at three levels: requests not yet handed to
// a worker fail immediately with ctx.Err(), workers skip queued
// requests once the context is done, and in-flight executions abort at
// the engine's next checkpoint.
//
// The answers share one backing array, each entry's results capped at
// their own length: a worker gathers its answers in pooled storage and
// the batch copies them out once every worker is done.
func (s *Service) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]search.BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	// Group requests by seeker in first-seen order: heads lists each
	// group's first request and next[i] the request after i in its group
	// (-1 ends it); last maps a seeker to its group's latest request.
	links := make([]int, 2*len(reqs))
	next, heads := links[:len(reqs)], links[len(reqs):len(reqs)]
	last := make(map[string]int, len(reqs))
	for i, r := range reqs {
		next[i] = -1
		if j, ok := last[r.Seeker]; ok {
			next[j] = i
		} else {
			heads = append(heads, i)
		}
		last[r.Seeker] = i
	}
	workers := s.cfg.BatchWorkers
	if workers > len(heads) {
		workers = len(heads)
	}
	gathered := make([]*batchGather, workers)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := range gathered {
		g := batchGathers.Get().(*batchGather)
		gathered[w] = g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for head := range jobs {
				for i := head; i >= 0; i = next[i] {
					if err := ctx.Err(); err != nil {
						out[i] = search.BatchResult{Err: err}
						continue
					}
					if err := s.DoInto(ctx, reqs[i], &g.resp); err != nil {
						out[i] = search.BatchResult{Err: err}
						continue
					}
					// The slice stays valid if a later append moves the
					// gathered results: the old array is left as it is.
					lo := len(g.results)
					g.results = append(g.results, g.resp.Results...)
					out[i] = search.BatchResult{Response: search.Response{Results: g.results[lo:], Explain: g.resp.Explain}}
				}
			}
		}()
	}
dispatch:
	for gi, head := range heads {
		select {
		case jobs <- head:
		case <-ctx.Done():
			// Everything not yet dispatched fails without executing.
			for _, h := range heads[gi:] {
				for i := h; i >= 0; i = next[i] {
					out[i] = search.BatchResult{Err: ctx.Err()}
				}
			}
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()

	total := 0
	for i := range out {
		total += len(out[i].Response.Results)
	}
	backing := make([]search.Result, total)
	lo := 0
	for i := range out {
		if out[i].Err == nil {
			hi := lo + copy(backing[lo:], out[i].Response.Results)
			out[i].Response.Results = backing[lo:hi:hi]
			lo = hi
		}
	}
	for _, g := range gathered {
		g.release()
	}
	return out
}

// batchGather is one DoBatch worker's pooled storage: the response
// DoInto refills for each query and the results the worker gathers
// until the batch copies them out.
type batchGather struct {
	resp    search.Response
	results []search.Result
}

var batchGathers = sync.Pool{New: func() interface{} { return new(batchGather) }}

// maxPooledResults caps the results a pooled batchGather keeps room
// for, so that one huge batch does not pin its memory.
const maxPooledResults = 4096

// release clears the gathered results, whose item names must not be
// pinned by a pooled buffer, and pools g unless it outgrew
// maxPooledResults.
func (g *batchGather) release() {
	clear(g.resp.Results[:cap(g.resp.Results)])
	clear(g.results[:cap(g.results)])
	g.resp.Results, g.resp.Explain, g.results = g.resp.Results[:0], nil, g.results[:0]
	if cap(g.resp.Results)+cap(g.results) <= maxPooledResults {
		batchGathers.Put(g)
	}
}

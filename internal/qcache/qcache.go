// Package qcache is the mutation-aware per-seeker query cache of the
// serving path: it keeps materialized seeker horizons (the
// proximity-ordered neighbourhood SocialMerge consumes) behind an LRU
// bound so a seeker's expensive graph expansion is paid once and reused
// across their queries.
//
// # Staleness
//
// Two invalidation granularities coexist:
//
//   - Invalidate bumps the cache generation, logically dropping every
//     cached entry in O(1) — the hammer for events that change the
//     friendship graph wholesale (a snapshot swap, a bulk load).
//   - InvalidateEdges drops only the entries whose horizon a batch of
//     friendship mutations could change. Proximity is a hop-damped
//     maximum path product with a support floor, so an edge (u, v) of
//     weight w can only change a horizon through an endpoint whose
//     proximity it raises (or ties): the entry is dropped when σ_u·w·α
//     reaches the floor and v is outside the horizon or below that
//     candidate, either way round (see core.SeekerHorizon.AffectedBy).
//     The horizon holds every σ the test reads: invalidation scans the
//     resident horizons, once per compaction that folded a friendship,
//     so a Put does no per-member work and the cache holds nothing per
//     member.
//
// Both bump the generation, and insertion is generation-bracketed: the
// caller captures Generation before materializing and passes it to Put,
// which refuses a horizon materialized under an older generation — a
// slow expansion racing any graph mutation can never install a stale
// entry. Entries that survive an edge-scoped invalidation stay valid
// under the new generation; only a full Invalidate raises the staleness
// floor below which resident entries are reaped lazily on lookup.
//
// Tag-only mutations do not touch the friendship graph and therefore do
// not invalidate: callers bump the generation only when friend edges
// reach the queryable snapshot.
//
// Cache effectiveness is observable through metrics.CacheCounters
// (hits, misses, invalidations, evictions, expirations), which
// internal/social surfaces in its Stats and the HTTP server exposes on
// /v1/stats.
package qcache

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// stripeEntries is the most entries one lock stripe holds. An
// invalidation scan holds a stripe's lock for time linear in the
// stripe's resident users, so the capacity sets the stripe count rather
// than a knob: 256 entries are 4 stripes of 64, and any capacity up to
// 64 is one stripe — one exact LRU.
const stripeEntries = 64

// Cache is a generation-stamped LRU of seeker horizons with edge-scoped
// invalidation. It is safe for concurrent use.
//
// It is split into ⌈capacity/64⌉ lock stripes, each an independent LRU
// of at most ⌈capacity/stripes⌉ entries; a seeker's stripe is a
// multiplicative hash of its id. The generation and the staleness floor
// are the whole cache's. The invariant that keeps a racing Put from
// installing a stale horizon: an invalidation bumps the generation
// before it scans any stripe, and Put checks the generation and links
// the entry under the same stripe lock — so a Put either runs before
// the scan reaches its stripe (and is scanned) or after it (and sees
// the new generation and is refused).
type Cache struct {
	// gen and floor are written only under mu; floor is stored before
	// gen, so a reader that sees a generation also sees its floor.
	gen   atomic.Uint64
	floor atomic.Uint64 // entries stamped below floor are stale (full invalidation)

	mu    sync.Mutex     // serializes invalidations
	batch core.EdgeBatch // scratch for InvalidateEdges, reused across calls

	stripes  []stripe
	counters metrics.CacheCounters
}

// stripe is one independently locked LRU.
type stripe struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List // of *entry, front = most recently used
	index    map[graph.UserID]*list.Element
	free     []*entry // recycled entries, bounded by capacity
}

type entry struct {
	seeker  graph.UserID
	gen     uint64
	at      time.Time
	horizon *core.SeekerHorizon
}

// New builds a cache bounded to capacity entries (≥ 1).
func New(capacity int) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("qcache: capacity %d must be >= 1", capacity)
	}
	n := (capacity + stripeEntries - 1) / stripeEntries
	c := &Cache{stripes: make([]stripe, n)}
	for i := range c.stripes {
		c.stripes[i] = stripe{
			capacity: (capacity + n - 1) / n,
			lru:      list.New(),
			index:    make(map[graph.UserID]*list.Element),
		}
	}
	return c, nil
}

// stripeOf returns the seeker's stripe: a Fibonacci hash of the id,
// reduced to the stripe count by a multiply-shift.
func (c *Cache) stripeOf(seeker graph.UserID) *stripe {
	h := uint64(uint32(seeker) * 0x9e3779b9)
	return &c.stripes[h*uint64(len(c.stripes))>>32]
}

// Generation returns the current cache generation. Capture it before
// materializing a horizon and pass it to Put: the pair brackets the
// materialization so a concurrent graph mutation voids the insert.
func (c *Cache) Generation() uint64 {
	return c.gen.Load()
}

// Invalidate bumps the generation and raises the staleness floor,
// logically dropping every cached horizon in O(1). Call it when the
// friendship graph changed in ways edge scoping cannot bound (snapshot
// swap, bulk load, too many edges to enumerate).
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	next := c.gen.Load() + 1
	c.floor.Store(next)
	c.gen.Store(next)
}

// InvalidateEdge is InvalidateEdges for one edge (u, v) of weight 1,
// the largest a friendship can have: whatever weight the graph holds
// for the edge, a horizon this keeps is one the real weight keeps too.
func (c *Cache) InvalidateEdge(u, v graph.UserID) int {
	return c.InvalidateEdges([]graph.Edge{{U: u, V: v, Weight: 1}})
}

// InvalidateEdges drops the cached horizons that folding the given
// edges into the graph could change (see core.SeekerHorizon.AffectedBy)
// and bumps the generation so in-flight materializations from the
// superseded graph cannot be installed — one bump for the batch, which
// is what a compaction that folded many Befriends calls. Each edge's
// weight must be the one the graph holds for it after the fold (the
// larger of the old and the new). It walks each stripe's LRU once under
// that stripe's lock, asking each resident horizon about the batch:
// work proportional to the cache's resident users, paid per
// friendship-folding compaction instead of per Put and per eviction.
// It returns the number of entries dropped.
func (c *Cache) InvalidateEdges(edges []graph.Edge) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen.Add(1) // before any stripe is scanned: see Cache
	c.batch.Reset(edges)
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; {
			next := el.Next()
			if el.Value.(*entry).horizon.AffectedBy(&c.batch) {
				s.remove(el)
				n++
			}
			el = next
		}
		s.mu.Unlock()
	}
	c.counters.Invalidation(n)
	return n
}

// Lookup returns the seeker's cached horizon if present and valid under
// generation gen — the one the caller captured when pinning its engine
// snapshot, so a hit is guaranteed consistent with that snapshot. A
// maxAge > 0 treats entries older than that as expired for this lookup
// (they are reaped). Entries below the staleness floor are reaped and
// counted as invalidations; expired ones as expirations; any non-hit is
// reported as a miss.
func (c *Cache) Lookup(seeker graph.UserID, gen uint64, maxAge time.Duration) (*core.SeekerHorizon, bool) {
	s := c.stripeOf(seeker)
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != c.gen.Load() {
		// The caller pinned a superseded snapshot; nothing we hold is
		// certified consistent with it.
		c.counters.Miss()
		return nil, false
	}
	el, ok := s.index[seeker]
	if !ok {
		c.counters.Miss()
		return nil, false
	}
	e := el.Value.(*entry)
	if e.gen < c.floor.Load() {
		s.remove(el)
		c.counters.Invalidation(1)
		c.counters.Miss()
		return nil, false
	}
	if maxAge > 0 && time.Since(e.at) > maxAge {
		s.remove(el)
		c.counters.Expiration(1)
		c.counters.Miss()
		return nil, false
	}
	s.lru.MoveToFront(el)
	c.counters.Hit()
	return e.horizon, true
}

// Put installs a horizon materialized under generation gen, evicting
// from the stripe's LRU tail to stay within capacity. It reports
// whether the entry was accepted: a horizon whose generation is no
// longer current was computed from a superseded graph and is dropped.
func (c *Cache) Put(seeker graph.UserID, gen uint64, h *core.SeekerHorizon) bool {
	if h == nil {
		return false
	}
	s := c.stripeOf(seeker)
	s.mu.Lock()
	defer s.mu.Unlock()
	if gen != c.gen.Load() {
		return false
	}
	if el, ok := s.index[seeker]; ok {
		// Refresh in place (a concurrent duplicate materialization).
		e := el.Value.(*entry)
		e.horizon = h
		e.gen = gen
		e.at = time.Now()
		s.lru.MoveToFront(el)
		return true
	}
	var e *entry
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &entry{}
	}
	e.seeker, e.gen, e.at, e.horizon = seeker, gen, time.Now(), h
	s.index[seeker] = s.lru.PushFront(e)
	for s.lru.Len() > s.capacity {
		s.remove(s.lru.Back())
		c.counters.Eviction(1)
	}
	return true
}

// Seekers returns the seekers with resident horizons, stripe by stripe
// and hottest (most recently used) first within each — the order a
// pre-warm transfer should replay them in, so a bounded receiver keeps
// the valuable ones.
func (c *Cache) Seekers() []graph.UserID {
	var out []graph.UserID
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		for el := s.lru.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*entry).seeker)
		}
		s.mu.Unlock()
	}
	return out
}

// Len returns the number of resident entries, stale ones included.
func (c *Cache) Len() int {
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Counters returns a snapshot of the effectiveness counters.
func (c *Cache) Counters() metrics.CacheSnapshot {
	return c.counters.Snapshot()
}

// remove unlinks an element and recycles its entry shell. Only the
// shell is reused: the horizon it pointed at may still be held by
// in-flight readers, so it is unreferenced here but never written to.
// Callers hold s.mu.
func (s *stripe) remove(el *list.Element) {
	e := el.Value.(*entry)
	s.lru.Remove(el)
	delete(s.index, e.seeker)
	e.horizon = nil
	if len(s.free) < s.capacity {
		s.free = append(s.free, e)
	}
}

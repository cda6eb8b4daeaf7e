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
//   - InvalidateEdge(u, v) drops only the entries whose horizon could be
//     affected by a friendship mutation on edge (u, v): those whose
//     members include u or v. Because proximity is a hop-damped maximum
//     path product, any path from a seeker through the mutated edge
//     reaches u or v first, so a horizon containing neither is provably
//     unchanged (see core.SeekerHorizon.HasAny). The horizon is its own
//     member set: invalidation scans the resident horizons for the
//     batch's endpoints, once per compaction that folded a friendship,
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
// # Admission and expiry
//
// Policy adds serving-fleet hygiene: TTL expires entries by age (so a
// quiet seeker's horizon does not pin memory forever), MinHorizonUsers
// refuses to cache horizons too small to be worth the slot (they are
// cheap to rematerialize), and MinMisses caches a seeker only after it
// has missed that many times (one-shot seekers never enter). Cache
// effectiveness is observable through metrics.CacheCounters (hits,
// misses, invalidations, evictions, expirations, admission rejections),
// which internal/social surfaces in its Stats and the HTTP server
// exposes on /v1/stats.
package qcache

import (
	"container/list"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// Policy tunes admission and expiry. The zero value admits everything
// and never expires — the behaviour before policies existed.
type Policy struct {
	// TTL expires entries older than this on lookup (0 = never).
	TTL time.Duration
	// MinHorizonUsers refuses to cache horizons with fewer materialized
	// users than this (0 or 1 = admit all sizes).
	MinHorizonUsers int
	// MinMisses admits a seeker only after it has missed this many times
	// since its last cached entry (≤ 1 = admit on first miss).
	MinMisses int
	// Now is the clock (nil = time.Now); injectable for tests.
	Now func() time.Time
}

// Validate checks policy ranges.
func (p Policy) Validate() error {
	if p.TTL < 0 {
		return fmt.Errorf("qcache: negative TTL %v", p.TTL)
	}
	if p.MinHorizonUsers < 0 || p.MinMisses < 0 {
		return fmt.Errorf("qcache: negative admission threshold")
	}
	return nil
}

// Cache is a generation-stamped LRU of seeker horizons with edge-scoped
// invalidation. It is safe for concurrent use.
type Cache struct {
	capacity int
	policy   Policy
	now      func() time.Time

	mu        sync.Mutex
	gen       uint64
	floor     uint64     // entries stamped below floor are stale (full invalidation)
	lru       *list.List // of *entry, front = most recently used
	index     map[graph.UserID]*list.Element
	misses    map[graph.UserID]int // per-seeker miss streaks (MinMisses > 1 only)
	endpoints []graph.UserID       // scratch for InvalidateEdges, reused across calls
	free      []*entry             // recycled entries, bounded by capacity
	counters  metrics.CacheCounters
}

type entry struct {
	seeker  graph.UserID
	gen     uint64
	at      time.Time
	horizon *core.SeekerHorizon
}

// New builds a cache bounded to capacity entries (≥ 1) with the zero
// Policy (admit everything, never expire).
func New(capacity int) (*Cache, error) {
	return NewWithPolicy(capacity, Policy{})
}

// NewWithPolicy builds a cache bounded to capacity entries (≥ 1) under
// the given admission/expiry policy.
func NewWithPolicy(capacity int, policy Policy) (*Cache, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("qcache: capacity %d must be >= 1", capacity)
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	now := policy.Now
	if now == nil {
		now = time.Now
	}
	c := &Cache{
		capacity: capacity,
		policy:   policy,
		now:      now,
		lru:      list.New(),
		index:    make(map[graph.UserID]*list.Element),
	}
	if policy.MinMisses > 1 {
		c.misses = make(map[graph.UserID]int)
	}
	return c, nil
}

// Generation returns the current cache generation. Capture it before
// materializing a horizon and pass it to Put: the pair brackets the
// materialization so a concurrent graph mutation voids the insert.
func (c *Cache) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}

// Invalidate bumps the generation and raises the staleness floor,
// logically dropping every cached horizon in O(1). Call it when the
// friendship graph changed in ways edge scoping cannot bound (snapshot
// swap, bulk load, too many edges to enumerate).
func (c *Cache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.floor = c.gen
}

// InvalidateEdge drops the cached horizons a friendship mutation on
// edge (u, v) could affect — those whose members include u or v — and
// bumps the generation so in-flight materializations from the
// superseded graph cannot be installed. It returns the number of
// entries dropped.
func (c *Cache) InvalidateEdge(u, v graph.UserID) int {
	return c.InvalidateEdges([][2]graph.UserID{{u, v}})
}

// InvalidateEdges is InvalidateEdge for a batch of mutated edges under
// one lock acquisition and one generation bump — what a compaction that
// folded many Befriends calls. It walks the LRU once, asking each
// resident horizon whether it holds any endpoint of the batch: work
// proportional to the cache's resident users, paid per friendship-
// folding compaction instead of per Put and per eviction.
func (c *Cache) InvalidateEdges(edges [][2]graph.UserID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if c.lru.Len() == 0 {
		return 0
	}
	ends := c.endpoints[:0]
	for _, e := range edges {
		ends = append(ends, e[0], e[1])
	}
	slices.Sort(ends)
	ends = slices.Compact(ends)
	c.endpoints = ends
	n := 0
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).horizon.HasAny(ends) {
			c.removeLocked(el)
			n++
		}
		el = next
	}
	c.counters.Invalidation(n)
	return n
}

// Get returns the seeker's cached horizon if present, unexpired, and
// valid under generation gen — the one the caller captured when pinning
// its engine snapshot, so a hit is guaranteed consistent with that
// snapshot. See Lookup for the age-bounded variant.
func (c *Cache) Get(seeker graph.UserID, gen uint64) (*core.SeekerHorizon, bool) {
	return c.Lookup(seeker, gen, 0)
}

// Lookup is Get with a per-query freshness bound: a maxAge > 0 tighter
// than the policy TTL treats older entries as expired for this lookup
// only (they are reaped, since the policy TTL would only keep them
// dying slower). Entries below the staleness floor are reaped and
// counted as invalidations; expired ones as expirations; any non-hit is
// reported as a miss.
func (c *Cache) Lookup(seeker graph.UserID, gen uint64, maxAge time.Duration) (*core.SeekerHorizon, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		// The caller pinned a superseded snapshot; nothing we hold is
		// certified consistent with it.
		c.missLocked(seeker)
		return nil, false
	}
	el, ok := c.index[seeker]
	if !ok {
		c.missLocked(seeker)
		return nil, false
	}
	e := el.Value.(*entry)
	if e.gen < c.floor {
		c.removeLocked(el)
		c.counters.Invalidation(1)
		c.missLocked(seeker)
		return nil, false
	}
	ttl := c.policy.TTL
	if maxAge > 0 && (ttl == 0 || maxAge < ttl) {
		ttl = maxAge
	}
	if ttl > 0 && c.now().Sub(e.at) > ttl {
		c.removeLocked(el)
		c.counters.Expiration(1)
		c.missLocked(seeker)
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.counters.Hit()
	return e.horizon, true
}

// missLocked counts a miss and advances the seeker's admission streak.
// Callers hold c.mu.
func (c *Cache) missLocked(seeker graph.UserID) {
	c.counters.Miss()
	if c.misses != nil {
		// Bound the streak table: it only holds seekers missed since
		// their last admission, but an adversarial key stream could grow
		// it without bound — reset wholesale past a generous multiple of
		// the capacity (streaks restart, costing at most MinMisses extra
		// misses per live seeker).
		if len(c.misses) > 8*c.capacity+1024 {
			clear(c.misses)
		}
		c.misses[seeker]++
	}
}

// Put installs a horizon materialized under generation gen, evicting
// from the LRU tail to stay within capacity. It reports whether the
// entry was accepted: a horizon whose generation is no longer current
// was computed from a superseded graph and is dropped, and the
// admission policy may refuse horizons too small or seekers too cold
// to be worth a slot.
func (c *Cache) Put(seeker graph.UserID, gen uint64, h *core.SeekerHorizon) bool {
	return c.put(seeker, gen, h, true)
}

// Warm is Put minus the admission policy: it installs a horizon that
// earned its slot elsewhere — a resize pre-warm transfers horizons that
// were already resident on the replica previously owning the seeker, so
// re-running cold-start admission (miss streaks, size floors) here
// would refuse exactly the entries the transfer exists to save. The
// generation check still applies: a horizon from a superseded snapshot
// is dropped.
func (c *Cache) Warm(seeker graph.UserID, gen uint64, h *core.SeekerHorizon) bool {
	return c.put(seeker, gen, h, false)
}

func (c *Cache) put(seeker graph.UserID, gen uint64, h *core.SeekerHorizon, admit bool) bool {
	if h == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen {
		return false
	}
	if admit && c.policy.MinHorizonUsers > 1 && h.Size() < c.policy.MinHorizonUsers {
		c.counters.AdmissionDenied()
		return false
	}
	if c.misses != nil {
		if admit && c.misses[seeker] < c.policy.MinMisses {
			c.counters.AdmissionDenied()
			return false
		}
		delete(c.misses, seeker)
	}
	if el, ok := c.index[seeker]; ok {
		// Refresh in place (a concurrent duplicate materialization).
		e := el.Value.(*entry)
		e.horizon = h
		e.gen = gen
		e.at = c.now()
		c.lru.MoveToFront(el)
		return true
	}
	var e *entry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		e = &entry{}
	}
	e.seeker, e.gen, e.at, e.horizon = seeker, gen, c.now(), h
	c.index[seeker] = c.lru.PushFront(e)
	for c.lru.Len() > c.capacity {
		c.removeLocked(c.lru.Back())
		c.counters.Eviction(1)
	}
	return true
}

// Seekers returns the seekers with resident horizons, hottest (most
// recently used) first — the order a pre-warm transfer should replay
// them in, so a bounded receiver keeps the valuable ones.
func (c *Cache) Seekers() []graph.UserID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]graph.UserID, 0, c.lru.Len())
	for el := c.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).seeker)
	}
	return out
}

// InvalidateSeeker drops one seeker's entry (current or stale),
// reporting whether one was removed.
func (c *Cache) InvalidateSeeker(seeker graph.UserID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[seeker]
	if !ok {
		return false
	}
	c.removeLocked(el)
	c.counters.Invalidation(1)
	return true
}

// Purge empties the cache without touching the generation or counting
// invalidations (e.g. to release memory).
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	c.index = make(map[graph.UserID]*list.Element)
	if c.misses != nil {
		clear(c.misses)
	}
}

// Len returns the number of resident entries, stale ones included.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Counters returns a snapshot of the effectiveness counters.
func (c *Cache) Counters() metrics.CacheSnapshot {
	return c.counters.Snapshot()
}

// removeLocked unlinks an element and recycles its entry shell. Only
// the shell is reused: the horizon it pointed at may still be held by
// in-flight readers, so it is unreferenced here but never written to.
// Callers hold c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.lru.Remove(el)
	delete(c.index, e.seeker)
	e.horizon = nil
	if len(c.free) < c.capacity {
		c.free = append(c.free, e)
	}
}

// Package social is the batteries-included facade of the library: a
// mutable social tagging service addressed by names instead of dense
// ids. It wires together the vocabulary layer (string ↔ id), an
// overlay.Overlay (pending updates + compaction), the core engine
// (certified top-k) and the serving cache — the API a downstream
// application embeds. The service is the only owner of its engine: it
// builds one core.Engine per compacted (graph, store) pair and
// publishes it, with the name dictionaries, in a lock-free view that
// every query reads.
//
//	svc, _ := social.NewService(social.DefaultServiceConfig())
//	svc.Befriend("alice", "bob", 0.9)
//	svc.Tag("bob", "luigis", "pizza")
//	res, _ := svc.Do(ctx, search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 5})
//	// res.Results[0].Item == "luigis"
//
// Do (with its DoBatch sibling) is the canonical request/response query
// surface — per-query β, execution mode, paging, explainable answers,
// context cancellation; see internal/search.
//
// Service is the one replica type. Its state — graph, store,
// vocabulary, replication cursor — changes only through the mutation
// funnel in mutation.go, Apply, which the plain mutators Befriend and
// Tag also call: cursor discipline, one validation
// before anything changes, an append to the attached Journal if there
// is one, the apply, the compaction policy. Durability is a property of
// that type, not a second type: internal/durable.Open returns a
// *Service with a write-ahead journal attached (journal.go), whose
// reads also fold in every acknowledged write; a volatile service
// leaves the journal nil and Checkpoint/Sync/Close are no-ops.
package social

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/proximity"
	"repro/internal/qcache"
	"repro/internal/tagstore"
	"repro/internal/vocab"
)

// Default sizes for the serving-path knobs (applied when the config
// leaves them zero).
const (
	DefaultSeekerCacheSize = 256
	DefaultBatchWorkers    = 4
	// DefaultEdgeScopeLimit caps the number of distinct mutated friend
	// edges one compaction invalidates by scope; past it the service
	// falls back to one global invalidation (cheaper than enumerating).
	DefaultEdgeScopeLimit = 256
)

// ServiceConfig tunes a Service.
type ServiceConfig struct {
	// Proximity configures the social proximity model; zero value means
	// α=0.6, self-weight 1, σ-floor 0.05 (a practical horizon).
	Proximity proximity.Params
	// Beta blends social and global scoring (default 1: pure social).
	Beta float64
	// AutoCompactEvery folds mutations into the queryable snapshot
	// after this many writes (default 64; 0 compacts on every write —
	// simplest semantics, highest write cost).
	AutoCompactEvery int
	// SeekerCacheSize bounds the per-seeker horizon cache (see
	// internal/qcache, which stripes its lock by this capacity): 0 means
	// DefaultSeekerCacheSize, negative disables caching entirely (every
	// search re-expands the graph). Caching trades eager full-horizon
	// expansion on a miss for reuse on hits; workloads dominated by
	// one-shot seekers should disable it.
	SeekerCacheSize int
	// EdgeScopeLimit caps how many distinct mutated friend edges one
	// compaction invalidates by scope (dropping only cached horizons
	// in which some edge can raise or tie an endpoint's proximity; see
	// core.SeekerHorizon.AffectedBy) before falling back to a global
	// invalidation. 0 = DefaultEdgeScopeLimit; negative disables edge
	// scoping entirely (every friend compaction invalidates globally).
	EdgeScopeLimit int
	// BatchWorkers bounds the worker pool DoBatch runs queries on
	// (0 means DefaultBatchWorkers).
	BatchWorkers int
}

// DefaultServiceConfig returns the practical defaults described above.
func DefaultServiceConfig() ServiceConfig {
	return ServiceConfig{
		Proximity:        proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.05},
		Beta:             1.0,
		AutoCompactEvery: 64,
		SeekerCacheSize:  DefaultSeekerCacheSize,
		BatchWorkers:     DefaultBatchWorkers,
	}
}

// Service is a mutable, name-addressed social tagging search service.
// It is safe for concurrent use; reads see the last compacted snapshot
// (on a journaled service, compacted up to every acknowledged write).
// Searches reuse cached seeker horizons (internal/qcache) that are
// invalidated whenever friendship edges reach the snapshot.
type Service struct {
	cfg   ServiceConfig
	cache *qcache.Cache // nil when caching is disabled

	// scratch recycles per-query working storage (see doScratch) so the
	// warm read path allocates nothing.
	scratch sync.Pool

	// view is the lock-free read-path snapshot: clones of the name
	// dictionaries, the engine snapshot they describe, and the cache
	// generation pinned with it — everything doIntoScratch used
	// to take s.mu for. It is the only holder of the current
	// core.Engine, never nil once the service is built, and republished
	// (atomically swapped) by install and every compaction; queries that
	// miss a name minted since the last publish fall back to the locked
	// path. See publishLocked.
	view atomic.Pointer[queryView]

	// journal, when attached (AttachJournal, before the service is
	// shared), makes the service durable: the funnel appends every
	// accepted mutation to it before applying, and reads fold pending
	// writes in first. Nil on a volatile service.
	journal Journal
	// writes counts mutations applied since the last successful
	// compaction. Written under mu; loaded lock-free by a journaled
	// service's read path to decide whether a fold is needed at all.
	writes atomic.Int64

	mu      sync.Mutex
	names   *vocab.Set
	overlay *overlay.Overlay
	// broken latches once a journaled mutation was appended but failed
	// to apply (see ErrBroken).
	broken bool
	// appliedLSN is the replication cursor: the highest fleet replication
	// log LSN this service has processed (see Apply). 0 until
	// the first LSN-stamped mutation arrives; untouched by plain writes.
	appliedLSN uint64
}

// normalizeConfig validates cfg and fills serving-path defaults.
func normalizeConfig(cfg ServiceConfig) (ServiceConfig, error) {
	if cfg.Proximity == (proximity.Params{}) {
		cfg.Proximity = DefaultServiceConfig().Proximity
	}
	if err := cfg.Proximity.Validate(); err != nil {
		return cfg, err
	}
	if cfg.Beta < 0 || cfg.Beta > 1 {
		return cfg, fmt.Errorf("social: beta %g outside [0,1]", cfg.Beta)
	}
	if cfg.AutoCompactEvery < 0 {
		return cfg, fmt.Errorf("social: negative AutoCompactEvery")
	}
	if cfg.SeekerCacheSize == 0 {
		cfg.SeekerCacheSize = DefaultSeekerCacheSize
	}
	if cfg.EdgeScopeLimit == 0 {
		cfg.EdgeScopeLimit = DefaultEdgeScopeLimit
	}
	if cfg.BatchWorkers == 0 {
		cfg.BatchWorkers = DefaultBatchWorkers
	}
	if cfg.BatchWorkers < 0 {
		return cfg, fmt.Errorf("social: negative BatchWorkers")
	}
	return cfg, nil
}

// newSeekerCache builds the horizon cache the config asks for (nil
// when disabled).
func newSeekerCache(cfg ServiceConfig) (*qcache.Cache, error) {
	if cfg.SeekerCacheSize < 0 {
		return nil, nil
	}
	return qcache.New(cfg.SeekerCacheSize)
}

// NewService builds an empty service.
func NewService(cfg ServiceConfig) (*Service, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	cache, err := newSeekerCache(cfg)
	if err != nil {
		return nil, err
	}
	// Start from empty immutable bases; universes grow via the overlay.
	s := &Service{cfg: cfg, cache: cache}
	if err := s.install(newEmptyGraph(), newEmptyStore(), vocab.NewSet()); err != nil {
		return nil, err
	}
	return s, nil
}

// install makes (g, st, names) the service's whole state — the one way
// NewService, Restore and ImportSnapshot give a service its state. It
// checks that the state is whole and that the vocabularies agree with
// the structural universes, wraps g and st in a fresh overlay, builds
// the engine, drops every cached horizon when it replaces an earlier
// universe, and publishes a view over O(1) clones of names'
// dictionaries (see vocab.Dict.Clone), so a restored replica pays no
// second copy of its vocabulary. Ownership of all three arguments
// passes to the service. Callers hold s.mu, or have exclusive access.
func (s *Service) install(g *graph.Graph, st *tagstore.Store, names *vocab.Set) error {
	if g == nil || st == nil || names == nil || names.Users == nil || names.Items == nil || names.Tags == nil {
		return fmt.Errorf("social: nil state in snapshot")
	}
	if names.Users.Len() != g.NumUsers() {
		return fmt.Errorf("social: %d user names for %d graph users", names.Users.Len(), g.NumUsers())
	}
	if names.Items.Len() != st.NumItems() {
		return fmt.Errorf("social: %d item names for %d store items", names.Items.Len(), st.NumItems())
	}
	if names.Tags.Len() != st.NumTags() {
		return fmt.Errorf("social: %d tag names for %d store tags", names.Tags.Len(), st.NumTags())
	}
	o, err := overlay.New(g, st)
	if err != nil {
		return err
	}
	eng, err := s.newEngine(g, st)
	if err != nil {
		return err
	}
	s.names, s.overlay = names, o
	if s.cache != nil && s.view.Load() != nil {
		s.cache.Invalidate() // the horizons describe the old universe
	}
	s.publishLocked(eng)
	return nil
}

// newEngine builds the query engine over one compacted snapshot.
func (s *Service) newEngine(g *graph.Graph, st *tagstore.Store) (*core.Engine, error) {
	return core.NewEngine(g, st, core.Config{Proximity: s.cfg.Proximity, Beta: s.cfg.Beta})
}

// queryView is the immutable snapshot the lock-free read path works
// against: clones of the name dictionaries taken when eng was
// published, the engine snapshot itself, and the cache generation
// observed then. The generation is what makes pinning safe
// without s.mu: qcache.Lookup/Put demand an exact generation match, so
// a view published before an invalidation simply misses (and its Puts
// are refused) instead of serving a stale horizon.
type queryView struct {
	users *vocab.Dict
	items *vocab.Dict
	tags  *vocab.Dict
	eng   *core.Engine
	gen   uint64 // 0 when caching is disabled
}

// publishLocked publishes a view over eng with fresh clones of the
// live dictionaries. Called by install for a new universe's first
// view, at the end of every compaction and by ApplyInvalidation,
// which bumps the cache generation after compacting. A clone costs
// O(1) and shares the live dictionary's storage (vocab.Dict.Clone), so
// every publish takes one. Names minted since the last publish are
// past the clones' length: a reader that misses one falls back to the
// locked path. Callers hold s.mu.
func (s *Service) publishLocked(eng *core.Engine) {
	v := &queryView{
		users: s.names.Users.Clone(),
		items: s.names.Items.Clone(),
		tags:  s.names.Tags.Clone(),
		eng:   eng,
	}
	if s.cache != nil {
		v.gen = s.cache.Generation()
	}
	s.view.Store(v)
}

// noteWrite applies the auto-compaction policy. Callers hold s.mu.
func (s *Service) noteWrite() error {
	if n := s.writes.Add(1); s.cfg.AutoCompactEvery == 0 || n >= int64(s.cfg.AutoCompactEvery) {
		return s.compactLocked()
	}
	return nil
}

// compactLocked folds pending writes into the queryable snapshot and,
// when friendship edges were among them, invalidates the cached seeker
// horizons those edges could change: each distinct pending edge (the
// overlay's PendingFriendships, read before Compact empties it) goes to
// qcache.InvalidateEdges with the weight the compacted graph holds for
// it — the larger of the old and the declared one, which is what the
// next expansion relaxes — and a horizon is dropped only when some edge
// can raise (or tie) the proximity of one of its endpoints (see
// core.SeekerHorizon.AffectedBy). An edge the graph does not hold
// counts at weight 1, the largest there is. When more than
// EdgeScopeLimit distinct edges are pending — or edge scoping is
// disabled — the service falls back to one global invalidation.
// Tag-only compactions leave the cache untouched — tags live in the
// store, not the graph, so horizons stay exact. A compaction that
// changed the (graph, store) pair gets a new engine — Overlay.Compact
// keeps the graph of a batch without friendships and the store of one
// without tags, so both are compared. Callers hold s.mu.
func (s *Service) compactLocked() error {
	var edges []graph.Edge
	if s.cache != nil {
		edges = s.overlay.PendingFriendships()
	}
	if err := s.overlay.Compact(); err != nil {
		return err
	}
	eng := s.view.Load().eng
	if g, st := s.overlay.Snapshot(); g != eng.Graph() || st != eng.Store() {
		var err error
		if eng, err = s.newEngine(g, st); err != nil {
			return err
		}
	}
	s.writes.Store(0)
	switch {
	case len(edges) == 0: // no friendships folded, or no cache
	case s.cfg.EdgeScopeLimit < 0 || len(edges) > s.cfg.EdgeScopeLimit:
		s.cache.Invalidate()
	default:
		g := eng.Graph()
		for i, e := range edges {
			w, ok := g.EdgeWeight(e.U, e.V)
			if !ok {
				w = 1
			}
			edges[i].Weight = w
		}
		s.cache.InvalidateEdges(edges)
	}
	s.publishLocked(eng)
	return nil
}

// AppliedLSN returns the replication cursor: the highest replication
// log LSN this service has processed (0 before any).
func (s *Service) AppliedLSN() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedLSN
}

// Flush forces pending writes into the queryable snapshot.
func (s *Service) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// ApplyInvalidation folds pending writes into the queryable snapshot —
// which performs the edge-scoped invalidation for the edges this
// process noted when it applied them — and then drops cached horizons:
// those the named edges could affect at weight 1, the largest a
// friendship can have (names unknown locally are skipped, since no id —
// and therefore no cached horizon — can reference them), or with all
// set the whole cache. Returns the number of entries invalidated. It
// serves no endpoint (the fleet folds through Flush, which the last
// apply page of a stream asks for); benchmarks/fleetbench's ledger
// calls it to empty the replicas' caches before each cold-read rung.
func (s *Service) ApplyInvalidation(edges [][2]string, all bool) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.compactLocked(); err != nil {
		return 0, err
	}
	if s.cache == nil {
		return 0, nil
	}
	if all {
		n := s.cache.Len()
		s.cache.Invalidate()
		s.publishLocked(s.view.Load().eng)
		return n, nil
	}
	ids := make([]graph.Edge, 0, len(edges))
	for _, e := range edges {
		ua, ok := s.names.Users.ID(e[0])
		if !ok {
			continue
		}
		ub, ok := s.names.Users.ID(e[1])
		if !ok {
			continue
		}
		ids = append(ids, graph.Edge{U: ua, V: ub, Weight: 1})
	}
	if len(ids) == 0 {
		return 0, nil
	}
	n := s.cache.InvalidateEdges(ids)
	s.publishLocked(s.view.Load().eng)
	return n, nil
}

// Users returns all known user names in id order.
func (s *Service) Users() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.names.Users.Names()...)
}

// Stats summarizes the service state.
type Stats struct {
	Users, Items, Tags int
	PendingWrites      int
	Compactions        int
	// AppliedLSN is the replication cursor (0 outside fleet-replica
	// posture): the highest replication log LSN processed.
	AppliedLSN uint64
	// SeekerCache reports the horizon cache's effectiveness counters
	// (all zero when caching is disabled).
	SeekerCache metrics.CacheSnapshot
	// SeekerCacheEntries is the number of resident cache entries.
	SeekerCacheEntries int
	// JournalStats carries the durability counters of a journaled
	// service (RecoveredRecords, SnapshotBarrier, LogSegments,
	// WritesSinceCheckpoint, flat on the JSON and /metrics wires). Nil
	// on a volatile service, whose wire carries none of the four — check
	// it before reading the promoted fields.
	*JournalStats
}

// Stats returns current counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	pe, pt := s.overlay.Pending()
	st := Stats{
		Users:         s.names.Users.Len(),
		Items:         s.names.Items.Len(),
		Tags:          s.names.Tags.Len(),
		PendingWrites: pe + pt,
		Compactions:   s.overlay.Compactions(),
		AppliedLSN:    s.appliedLSN,
	}
	if s.cache != nil {
		st.SeekerCache = s.cache.Counters()
		st.SeekerCacheEntries = s.cache.Len()
	}
	if s.journal != nil {
		js := s.journal.Stats()
		st.JournalStats = &js
	}
	return st
}

package social

import (
	"context"

	"repro/internal/graph"
)

// Cache warming: the fleet's elastic-resize pre-warm plane. Before a
// topology change flips traffic onto a replica, the orchestrator asks
// the current owners which seekers have resident horizons
// (CachedSeekers) and tells the new owner to materialize exactly those
// (WarmSeekers) — so the first real query after the flip hits a warm
// cache instead of paying the horizon expansion that was already paid
// elsewhere.

// CachedSeekers returns the names of every seeker with a resident
// cached horizon, hottest first within each cache stripe. Nil when
// caching is disabled.
func (s *Service) CachedSeekers() []string {
	if s.cache == nil {
		return nil
	}
	ids := s.cache.Seekers()
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(ids))
	for _, id := range ids {
		if n, ok := s.names.Users.Name(id); ok {
			names = append(names, n)
		}
	}
	return names
}

// WarmSeekers materializes and caches the horizons of the named
// seekers that are not resident already. It is orchestrator traffic,
// not queries: it reads residency from one Seekers snapshot rather
// than through Lookup, so the cache's hit and miss counters do not
// move. Unknown names are skipped — the joiner may trail the source by
// a few records; those seekers simply warm on first query. Returns how
// many horizons were installed; stops early (with the count so far)
// when ctx is cancelled.
func (s *Service) WarmSeekers(ctx context.Context, seekers []string) (int, error) {
	if s.cache == nil || len(seekers) == 0 {
		return 0, nil
	}
	// Pin the engine snapshot, the generation and the resident set under
	// one lock hold (the same pairing publishLocked gives the read path):
	// the generation only moves under s.mu, so a horizon materialized
	// from this engine is consistent with it, and any later invalidation
	// bumps the generation and makes Put refuse the horizon.
	s.mu.Lock()
	eng := s.view.Load().eng
	gen := s.cache.Generation()
	resident := make(map[graph.UserID]bool)
	for _, id := range s.cache.Seekers() {
		resident[id] = true
	}
	ids := make([]graph.UserID, 0, len(seekers))
	for _, name := range seekers {
		if id, ok := s.names.Users.ID(name); ok && !resident[id] {
			resident[id] = true
			ids = append(ids, id)
		}
	}
	s.mu.Unlock()

	warmed := 0
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return warmed, err
		}
		h, err := s.materializeSpan(ctx, eng, id)
		if err != nil {
			return warmed, err
		}
		if s.cache.Put(id, gen, h) {
			warmed++
		}
	}
	return warmed, nil
}

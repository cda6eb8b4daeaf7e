package social

import (
	"repro/internal/graph"
	"repro/internal/tagstore"
	"repro/internal/vocab"
)

// Snapshot flushes pending writes and returns the compacted immutable
// state: the (graph, store) pair the engine queries, plus an
// independent copy of the vocabularies. The graph and store are
// immutable by construction; the vocabulary copy is safe to persist
// while writers keep appending to the live service. This is the export
// half of the persistence contract (see Restore and internal/durable).
func (s *Service) Snapshot() (*graph.Graph, *tagstore.Store, *vocab.Set, error) {
	g, st, names, _, err := s.SnapshotWithCursor()
	return g, st, names, err
}

// Restore rebuilds a service from a state previously exported by
// Snapshot. The vocabularies must agree with the structural universes
// (same user/item/tag counts); ownership of all four arguments passes
// to the service, whose lock-free view reads the dictionaries in place.
func Restore(cfg ServiceConfig, g *graph.Graph, st *tagstore.Store, names *vocab.Set) (*Service, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	cache, err := newSeekerCache(cfg)
	if err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, cache: cache}
	if err := s.install(g, st, names); err != nil {
		return nil, err
	}
	return s, nil
}

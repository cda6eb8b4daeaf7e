package social

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/overlay"
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
// to the service.
func Restore(cfg ServiceConfig, g *graph.Graph, st *tagstore.Store, names *vocab.Set) (*Service, error) {
	cfg, err := normalizeConfig(cfg)
	if err != nil {
		return nil, err
	}
	o, eng, err := loadState(cfg, g, st, names)
	if err != nil {
		return nil, err
	}
	cache, err := newSeekerCache(cfg)
	if err != nil {
		return nil, err
	}
	return &Service{cfg: cfg, cache: cache, names: names, overlay: o, engine: eng}, nil
}

// loadState checks that an exported state is whole and that its
// vocabularies agree with its structural universes, and wraps it in the
// overlay and engine a service runs on.
func loadState(cfg ServiceConfig, g *graph.Graph, st *tagstore.Store, names *vocab.Set) (*overlay.Overlay, *overlay.Engine, error) {
	if g == nil || st == nil || names == nil || names.Users == nil || names.Items == nil || names.Tags == nil {
		return nil, nil, fmt.Errorf("social: nil state in snapshot")
	}
	if names.Users.Len() != g.NumUsers() {
		return nil, nil, fmt.Errorf("social: %d user names for %d graph users", names.Users.Len(), g.NumUsers())
	}
	if names.Items.Len() != st.NumItems() {
		return nil, nil, fmt.Errorf("social: %d item names for %d store items", names.Items.Len(), st.NumItems())
	}
	if names.Tags.Len() != st.NumTags() {
		return nil, nil, fmt.Errorf("social: %d tag names for %d store tags", names.Tags.Len(), st.NumTags())
	}
	o, err := overlay.New(g, st)
	if err != nil {
		return nil, nil, err
	}
	eng, err := overlay.NewEngine(o, core.Config{Proximity: cfg.Proximity, Beta: cfg.Beta}, 0)
	if err != nil {
		return nil, nil, err
	}
	return o, eng, nil
}

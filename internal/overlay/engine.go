package overlay

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/tagstore"
)

// Engine is a queryable view over an Overlay: it rebuilds the immutable
// core.Engine whenever a compaction changed the snapshot, and can be
// configured to compact automatically after a number of mutations.
// Reads and writes may proceed concurrently; queries always run on a
// consistent snapshot.
type Engine struct {
	overlay *Overlay
	cfg     core.Config

	// AutoCompactEvery compacts after this many mutations (0 disables
	// auto-compaction; callers then compact explicitly).
	autoCompactEvery int

	mu        sync.Mutex
	engine    *core.Engine
	mutations int
}

// NewEngine wraps an overlay with query capability. autoCompactEvery
// ≤ 0 disables automatic compaction.
func NewEngine(o *Overlay, cfg core.Config, autoCompactEvery int) (*Engine, error) {
	if o == nil {
		return nil, fmt.Errorf("overlay: nil overlay")
	}
	e := &Engine{overlay: o, cfg: cfg, autoCompactEvery: autoCompactEvery}
	if err := e.refresh(); err != nil {
		return nil, err
	}
	return e, nil
}

// refresh rebuilds the core engine if the overlay snapshot moved. A
// compaction may replace only the graph or only the store, so both are
// compared.
func (e *Engine) refresh() error {
	g, s := e.overlay.Snapshot()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.engine != nil && e.engine.Graph() == g && e.engine.Store() == s {
		return nil
	}
	eng, err := core.NewEngine(g, s, e.cfg)
	if err != nil {
		return err
	}
	e.engine = eng
	return nil
}

// current returns the engine for the newest compacted snapshot.
func (e *Engine) current() (*core.Engine, error) {
	if err := e.refresh(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.engine, nil
}

// Current returns the immutable core engine for the newest compacted
// snapshot, for callers that must pin one snapshot across several
// operations (e.g. materialize a seeker horizon, then query with it).
func (e *Engine) Current() (*core.Engine, error) {
	return e.current()
}

func (e *Engine) noteMutation() error {
	e.mu.Lock()
	e.mutations++
	due := e.autoCompactEvery > 0 && e.mutations >= e.autoCompactEvery
	if due {
		e.mutations = 0
	}
	e.mu.Unlock()
	if due {
		return e.overlay.Compact()
	}
	return nil
}

// Tag records a tagging action, possibly triggering auto-compaction.
func (e *Engine) Tag(user graph.UserID, item tagstore.ItemID, tag tagstore.TagID) error {
	if err := e.overlay.Tag(user, item, tag); err != nil {
		return err
	}
	return e.noteMutation()
}

// Befriend records a friendship, possibly triggering auto-compaction.
func (e *Engine) Befriend(u, v graph.UserID, weight float64) error {
	if err := e.overlay.Befriend(u, v, weight); err != nil {
		return err
	}
	return e.noteMutation()
}

// Compact forces pending mutations into the queryable snapshot.
func (e *Engine) Compact() error {
	if err := e.overlay.Compact(); err != nil {
		return err
	}
	return e.refresh()
}

// SocialMerge answers a query on the newest compacted snapshot.
func (e *Engine) SocialMerge(q core.Query, opts core.Options) (core.Answer, error) {
	eng, err := e.current()
	if err != nil {
		return core.Answer{}, err
	}
	return eng.SocialMerge(q, opts)
}

// ExactSocial answers a query with the exact baseline on the newest
// compacted snapshot.
func (e *Engine) ExactSocial(q core.Query) (core.Answer, error) {
	eng, err := e.current()
	if err != nil {
		return core.Answer{}, err
	}
	return eng.ExactSocial(q)
}

// GlobalTopK answers a query with the non-personalized baseline on the
// newest compacted snapshot.
func (e *Engine) GlobalTopK(q core.Query) (core.Answer, error) {
	eng, err := e.current()
	if err != nil {
		return core.Answer{}, err
	}
	return eng.GlobalTopK(q)
}

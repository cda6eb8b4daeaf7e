// Package core implements the paper's primary contribution: socially
// personalized top-k query answering over a collaborative tagging
// network — answering a seeker's query "with a little help from my
// friends".
//
// Scoring model. For seeker s, query Q (a set of tags) and item i:
//
//	score(s, Q, i) = β · Σ_{t∈Q} Σ_{v} σ(s,v)·tf(v,i,t)
//	              + (1-β) · Σ_{t∈Q} gtf(i,t)
//
// where σ is the social proximity of package proximity, tf(v,i,t) the
// per-user tag frequency, gtf the global tag frequency, and β ∈ [0,1]
// blends personalized and global relevance (β = 1 is pure social).
//
// Algorithms. The Engine exposes:
//
//   - ExactSocial: materializes σ(s,·) over the whole network, scores
//     every item, and sorts — the exact but expensive baseline.
//   - GlobalTopK: Fagin-style TA over the global per-tag posting lists;
//     ignores the network entirely (the non-personalized baseline).
//   - SocialMerge: the contribution. It interleaves an incremental
//     best-first expansion of the social network with posting-list
//     processing, maintaining NRA-style [lower, upper] intervals per
//     candidate item, and terminates as soon as the k-th best confirmed
//     lower bound provably dominates every other item — typically after
//     exploring only a small neighbourhood of the seeker.
//   - ContextMerge: the materialize-then-merge baseline. It expands the
//     whole social ball first, then consumes per-(friend, tag) posting
//     lists in perfect σ·tf order through a priority queue.
//   - SocialTA: a threshold algorithm with social random access. It
//     walks global lists in sorted order and completes each candidate's
//     exact score immediately via the item-pivoted ItemIndex.
//
// All four are exact; their cost profiles differ (Fig 12), which is
// what internal/planner arbitrates per query. SocialMerge also powers
// the approximate variants (σ-horizon, hop bound, expansion budget,
// landmark pruning, materialized-neighbourhood acceleration) whose
// quality/latency trade-offs the experiment suite measures.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/tagstore"
	"repro/internal/topk"
)

// ctxErr is the shared cancellation checkpoint: it reports the
// context's error once it is done, nil otherwise (and always nil for a
// nil context, so zero-value Options cost one branch).
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// Engine binds a social graph and a tagging store with scoring
// parameters. An Engine is immutable and safe for concurrent use.
type Engine struct {
	g     *graph.Graph
	store *tagstore.Store
	prox  proximity.Params
	beta  float64

	landmarks *proximity.LandmarkIndex
	neighbors *NeighborhoodIndex
	items     *ItemIndex
}

// Config configures engine construction.
type Config struct {
	// Proximity configures the social proximity function; the zero value
	// means proximity.DefaultParams().
	Proximity proximity.Params
	// Beta blends social (β) and global (1-β) score components. The
	// conventional default is 1 (pure social). Negative values are
	// invalid; exactly zero degenerates to global scoring.
	Beta float64
}

// DefaultConfig returns the standard configuration: undamped proximity,
// pure social scoring.
func DefaultConfig() Config {
	return Config{Proximity: proximity.DefaultParams(), Beta: 1.0}
}

// NewEngine validates the configuration and builds an engine. The graph
// and store must agree on the user universe.
func NewEngine(g *graph.Graph, store *tagstore.Store, cfg Config) (*Engine, error) {
	if g == nil || store == nil {
		return nil, errors.New("core: nil graph or store")
	}
	if g.NumUsers() != store.NumUsers() {
		return nil, fmt.Errorf("core: graph has %d users, store has %d", g.NumUsers(), store.NumUsers())
	}
	if cfg.Proximity == (proximity.Params{}) {
		cfg.Proximity = proximity.DefaultParams()
	}
	if err := cfg.Proximity.Validate(); err != nil {
		return nil, err
	}
	if cfg.Beta < 0 || cfg.Beta > 1 {
		return nil, fmt.Errorf("core: beta %g outside [0,1]", cfg.Beta)
	}
	return &Engine{g: g, store: store, prox: cfg.Proximity, beta: cfg.Beta}, nil
}

// Graph returns the underlying social graph.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Store returns the underlying tagging store.
func (e *Engine) Store() *tagstore.Store { return e.store }

// Beta returns the social/global blend factor.
func (e *Engine) Beta() float64 { return e.beta }

// ProximityParams returns the proximity configuration.
func (e *Engine) ProximityParams() proximity.Params { return e.prox }

// AttachLandmarks installs a landmark index used by the landmark-pruned
// approximate variant (Options.LandmarkPrune).
func (e *Engine) AttachLandmarks(idx *proximity.LandmarkIndex) { e.landmarks = idx }

// AttachNeighborhoods installs a materialized neighbourhood index used
// by the accelerated variant (Options.UseNeighborhoods).
func (e *Engine) AttachNeighborhoods(idx *NeighborhoodIndex) { e.neighbors = idx }

// Query is one top-k request.
type Query struct {
	// Seeker is the querying user.
	Seeker graph.UserID
	// Tags is the set of query tags (duplicates are ignored).
	Tags []tagstore.TagID
	// K is the number of results requested (≥ 1).
	K int
}

// Validate checks the query against the engine's universe.
func (e *Engine) validateQuery(q Query) error {
	if q.K < 1 {
		return fmt.Errorf("core: k = %d, must be >= 1", q.K)
	}
	if q.Seeker < 0 || int(q.Seeker) >= e.g.NumUsers() {
		return fmt.Errorf("core: seeker %d outside [0,%d)", q.Seeker, e.g.NumUsers())
	}
	if len(q.Tags) == 0 {
		return errors.New("core: empty tag set")
	}
	for _, t := range q.Tags {
		if t < 0 || int(t) >= e.store.NumTags() {
			return fmt.Errorf("core: tag %d outside [0,%d)", t, e.store.NumTags())
		}
	}
	return nil
}

// dedupTags returns the query tags with duplicates removed, preserving
// first-occurrence order.
func dedupTags(tags []tagstore.TagID) []tagstore.TagID {
	seen := make(map[tagstore.TagID]bool, len(tags))
	out := tags[:0:0]
	for _, t := range tags {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// Options tunes SocialMerge. The zero value requests the exact
// algorithm.
type Options struct {
	// Ctx, when non-nil, is polled at cancellation checkpoints inside
	// the query loops: a cancelled (or deadline-expired) context aborts
	// the execution promptly with ctx.Err() instead of burning CPU on an
	// answer nobody is waiting for. nil disables the checkpoints.
	Ctx context.Context
	// Theta stops network expansion once the frontier proximity falls
	// below this value (σ-horizon). 0 disables.
	Theta float64
	// MaxHops stops expansion beyond this hop distance. 0 disables.
	MaxHops int
	// MaxUsers bounds the number of users settled. 0 disables.
	MaxUsers int
	// LandmarkPrune skips users whose landmark-estimated proximity
	// cannot beat the current termination threshold. Requires
	// AttachLandmarks; it is a heuristic and may reduce recall.
	LandmarkPrune bool
	// UseNeighborhoods reads σ from the materialized neighbourhood
	// index instead of expanding the graph. Requires
	// AttachNeighborhoods. Users beyond the materialized horizon are
	// treated as having the index's residual bound.
	UseNeighborhoods bool
	// RefineScores disables early termination and consumes the entire
	// (horizon-bounded) user source, so reported scores are the exact
	// scores rather than certified lower bounds. Costs the full horizon
	// expansion; the answer set is unchanged when the run certifies.
	RefineScores bool
}

// Answer is the outcome of one query execution.
type Answer struct {
	// Results are the top-k items ordered by (reported score desc, item
	// asc). For SocialMerge the reported scores are certified lower
	// bounds: the item *set* is exact when Exact is true, but under
	// near-ties the internal order may differ from the exact-score
	// order (completing exact scores would force settling every tagger
	// of every winner, defeating early termination). May hold fewer
	// than k entries when fewer items match.
	Results []topk.Result
	// Exact reports whether the result set is certified identical to
	// the exact answer (always true for ExactSocial; true for
	// SocialMerge when it terminated via its threshold test with no
	// approximation cutoffs triggered).
	Exact bool
	// Access aggregates the hardware-independent cost counters.
	Access topk.Access
	// UsersSettled is the number of users whose lists were consumed.
	UsersSettled int
}

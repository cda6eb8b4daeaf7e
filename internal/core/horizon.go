package core

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/proximity"
)

// SeekerHorizon is the materialized social neighbourhood of one seeker:
// the proximity-ordered users inside the horizon plus the residual
// bound beyond the materialized prefix. It is the single-seeker
// counterpart of NeighborhoodIndex, intended for query-time caching
// (see internal/exec): one expansion, many queries.
type SeekerHorizon struct {
	seeker   graph.UserID
	list     []proximity.Entry
	residual float64
}

// MaterializeHorizon expands the seeker's neighbourhood once and
// returns it in reusable form. maxUsers bounds the materialized prefix
// (0 means no bound: materialize the full horizon, which the proximity
// params' MinSigma floor keeps finite on connected graphs).
func (e *Engine) MaterializeHorizon(seeker graph.UserID, maxUsers int) (*SeekerHorizon, error) {
	return e.MaterializeHorizonCtx(nil, seeker, maxUsers)
}

// MaterializeHorizonCtx is MaterializeHorizon with cancellation
// checkpoints: a non-nil ctx that is cancelled mid-expansion aborts the
// (potentially graph-wide) walk promptly with ctx.Err().
func (e *Engine) MaterializeHorizonCtx(ctx context.Context, seeker graph.UserID, maxUsers int) (*SeekerHorizon, error) {
	it, err := proximity.AcquireIterator(e.g, seeker, e.prox)
	if err != nil {
		return nil, err
	}
	defer it.Release()
	h := &SeekerHorizon{seeker: seeker}
	for maxUsers <= 0 || len(h.list) < maxUsers {
		if len(h.list)%256 == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
		}
		entry, ok := it.Next()
		if !ok {
			break
		}
		h.list = append(h.list, entry)
	}
	h.residual = it.PeekBound()
	return h, nil
}

// Seeker returns the user this horizon was materialized for.
func (h *SeekerHorizon) Seeker() graph.UserID { return h.seeker }

// Size returns the number of materialized users.
func (h *SeekerHorizon) Size() int { return len(h.list) }

// Residual returns the proximity bound on users beyond the prefix
// (0 when the full horizon was materialized).
func (h *SeekerHorizon) Residual() float64 { return h.residual }

// Users returns the ids of the materialized users, proximity-descending
// (the seeker itself first). The slice is shared with the horizon; do
// not mutate it. Serving caches use it as the entry's member set for
// edge-scoped invalidation: because proximity is a hop-damped max path
// product, a friendship mutation on edge (u, v) can only change this
// horizon if u or v is among these members — any path from the seeker
// through the mutated edge reaches u or v first, at a proximity the
// materialized prefix (or its residual bound) already dominates.
func (h *SeekerHorizon) Users(buf []graph.UserID) []graph.UserID {
	users := buf[:0]
	for _, e := range h.list {
		users = append(users, e.User)
	}
	return users
}

// MemoryBytes estimates the resident size of the horizon.
func (h *SeekerHorizon) MemoryBytes() int { return 16 + len(h.list)*16 }

// SocialMergeWithHorizon answers the query using a previously
// materialized horizon instead of expanding the graph. The horizon must
// belong to the query's seeker and must have been materialized with the
// engine's proximity parameters; certification semantics match
// Options.UseNeighborhoods (a truncated horizon can make the answer
// approximate).
func (e *Engine) SocialMergeWithHorizon(q Query, h *SeekerHorizon, opts Options) (Answer, error) {
	var ans Answer
	if err := e.SocialMergeWithHorizonInto(q, h, opts, &ans); err != nil {
		return Answer{}, err
	}
	return ans, nil
}

// SocialMergeWithHorizonInto is SocialMergeWithHorizon writing into a
// caller-owned Answer (see SocialMergeInto): with a recycled Answer the
// whole cached read path — horizon adapter, candidate table, result
// assembly — runs without allocating. This is the single validation
// point for horizon-backed execution.
func (e *Engine) SocialMergeWithHorizonInto(q Query, h *SeekerHorizon, opts Options, ans *Answer) error {
	if h == nil {
		return fmt.Errorf("core: nil horizon")
	}
	if h.seeker != q.Seeker {
		return fmt.Errorf("core: horizon belongs to seeker %d, query is for %d", h.seeker, q.Seeker)
	}
	if opts.UseNeighborhoods || opts.LandmarkPrune {
		return fmt.Errorf("core: horizon execution excludes UseNeighborhoods/LandmarkPrune")
	}
	if err := e.validateQuery(q); err != nil {
		return err
	}
	return e.socialMergeRun(q, nil, h, opts, ans)
}

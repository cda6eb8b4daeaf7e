package core

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/graph"
	"repro/internal/proximity"
)

// SeekerHorizon is the materialized social neighbourhood of one seeker:
// the proximity-ordered users inside the horizon plus the residual
// bound beyond the materialized prefix. It is the single-seeker
// counterpart of NeighborhoodIndex, intended for query-time caching
// (see internal/qcache): one expansion, many queries.
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
	// Stage the entries in the pooled iterator's buffer and copy once:
	// the horizon must own its list (readers hold it after the cache
	// evicts it), but growing that list by append would allocate a dozen
	// times and keep a quarter of the bytes.
	limit := maxUsers
	if limit <= 0 {
		limit = math.MaxInt
	}
	var staged []proximity.Entry
	for len(staged) < limit {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		step := min(256, limit-len(staged)) // users between cancellation checkpoints
		settled := len(staged)
		staged = it.Settle(step)
		if len(staged)-settled < step {
			break // horizon exhausted
		}
	}
	h := &SeekerHorizon{seeker: seeker, list: make([]proximity.Entry, len(staged))}
	copy(h.list, staged)
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

// HasAny reports whether any of the given users is among the
// materialized ones. sorted must be ascending — an unsorted argument
// gives wrong answers, not a panic. The list is read in place, one pass
// whatever the number of ids: each member is tested against a 4 KiB
// filter of the ids' hashes on the stack, and only the few that pass
// (under 2% at 512 ids) are binary-searched in sorted. Searching every
// member instead costs 50–60 ns each once the ids are many and real
// (nine unpredictable branches), ten times the pass over the list.
//
// Serving caches ask this to scope invalidation to a mutated edge:
// because proximity is a hop-damped max path product, a friendship
// mutation on edge (u, v) can only change this horizon if u or v is
// among its members — any path from the seeker through the mutated edge
// reaches u or v first, at a proximity the materialized prefix (or its
// residual bound) already dominates.
func (h *SeekerHorizon) HasAny(sorted []graph.UserID) bool {
	if len(sorted) == 0 {
		return false
	}
	var filter [1 << (horizonFilterShift - 6)]uint64
	for _, u := range sorted {
		b := horizonFilterBit(u)
		filter[b>>6] |= 1 << (b & 63)
	}
	for i := range h.list {
		u := h.list[i].User
		if b := horizonFilterBit(u); filter[b>>6]&(1<<(b&63)) == 0 {
			continue
		}
		if _, ok := slices.BinarySearch(sorted, u); ok {
			return true
		}
	}
	return false
}

// horizonFilterShift sizes HasAny's filter: 2^15 bits. horizonFilterBit
// is a user's bit in it, by multiplicative hashing so that ids sharing
// low bits (or parity) spread out.
const horizonFilterShift = 15

func horizonFilterBit(u graph.UserID) uint32 {
	return uint32(u) * 0x9E3779B1 >> (32 - horizonFilterShift)
}

// MemoryBytes is the resident size of the horizon: the 40-byte struct
// and its exact-size list of 16-byte entries.
func (h *SeekerHorizon) MemoryBytes() int { return 40 + cap(h.list)*16 }

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

package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/graph"
	"repro/internal/proximity"
)

// SeekerHorizon is the materialized social neighbourhood of one seeker:
// every user inside the proximity horizon, in proximity order. It is
// the single-seeker counterpart of NeighborhoodIndex, intended for
// query-time caching (see internal/qcache): one expansion, many
// queries. A horizon is always complete (the proximity params' MinSigma
// floor is what bounds it): no user lies beyond it for a merge to
// certify against.
type SeekerHorizon struct {
	seeker graph.UserID
	list   []proximity.Entry
	// alpha and minSigma are the proximity parameters the list was
	// expanded under: AffectedBy replays the expansion's relaxation test
	// with them.
	alpha, minSigma float64
}

// MaterializeHorizon expands the seeker's full horizon once and returns
// it in reusable form. maxUsers must be 0: a horizon is never
// truncated, and the parameter stays only for callers written against
// the older signature.
func (e *Engine) MaterializeHorizon(seeker graph.UserID, maxUsers int) (*SeekerHorizon, error) {
	if maxUsers != 0 {
		return nil, fmt.Errorf("core: horizon truncation (maxUsers %d) is not supported", maxUsers)
	}
	return e.MaterializeHorizonCtx(nil, seeker)
}

// MaterializeHorizonCtx is MaterializeHorizon with cancellation
// checkpoints: a non-nil ctx that is cancelled mid-expansion aborts the
// (potentially graph-wide) walk promptly with ctx.Err().
func (e *Engine) MaterializeHorizonCtx(ctx context.Context, seeker graph.UserID) (*SeekerHorizon, error) {
	it, err := proximity.AcquireIterator(e.g, seeker, e.prox)
	if err != nil {
		return nil, err
	}
	defer it.Release()
	// Stage the entries in the pooled iterator's buffer and copy once:
	// the horizon must own its list (readers hold it after the cache
	// evicts it), but growing that list by append would allocate a dozen
	// times and keep a quarter of the bytes.
	const step = 256 // users between cancellation checkpoints
	var staged []proximity.Entry
	for {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		settled := len(staged)
		staged = it.Settle(step)
		if len(staged)-settled < step {
			break // horizon exhausted
		}
	}
	h := &SeekerHorizon{
		seeker:   seeker,
		list:     make([]proximity.Entry, len(staged)),
		alpha:    e.prox.Alpha,
		minSigma: e.prox.MinSigma,
	}
	copy(h.list, staged)
	return h, nil
}

// Seeker returns the user this horizon was materialized for.
func (h *SeekerHorizon) Seeker() graph.UserID { return h.seeker }

// Size returns the number of materialized users.
func (h *SeekerHorizon) Size() int { return len(h.list) }

// EdgeBatch is a batch of folded friendships, each with the weight the
// graph holds for it after the fold, prepared once for AffectedBy to
// test every cached horizon against: the endpoints sorted and
// de-duplicated, their 4 KiB filter, and each edge's endpoints as
// positions among them. The zero value is an empty batch. A batch is
// scratch for one caller at a time.
type EdgeBatch struct {
	ends   []graph.UserID
	edges  []batchEdge
	sigma  []float64 // per endpoint, its σ in the horizon under test; -1 outside it
	filter endpointFilter
}

// batchEdge is one folded edge: its endpoints as indexes into
// EdgeBatch.ends and its weight.
type batchEdge struct {
	u, v int32
	w    float64
}

// Reset loads the batch with edges, reusing its storage.
func (b *EdgeBatch) Reset(edges []graph.Edge) {
	b.ends = b.ends[:0]
	for _, e := range edges {
		b.ends = append(b.ends, e.U, e.V)
	}
	slices.Sort(b.ends)
	b.ends = slices.Compact(b.ends)
	b.filter.set(b.ends)
	b.edges = b.edges[:0]
	for _, e := range edges {
		u, _ := slices.BinarySearch(b.ends, e.U)
		v, _ := slices.BinarySearch(b.ends, e.V)
		b.edges = append(b.edges, batchEdge{u: int32(u), v: int32(v), w: e.Weight})
	}
	b.sigma = slices.Grow(b.sigma[:0], len(b.ends))[:len(b.ends)]
}

// AffectedBy reports whether folding the batch's edges into the graph
// this horizon was expanded from can change it: it is affected only if
// some edge (u, v) of weight w, in either direction, has u among its
// members and a candidate c = σ_u·w·α — the expression
// proximity.Iterator.Next relaxes, in its order — with c ≥ MinSigma and
// either v outside the horizon or c ≥ σ_v. Equality counts: a candidate
// equal to σ_v leaves the proximity as it is but can be pushed before
// v's old best path and change v's Hops.
//
// Why that suffices, for a whole batch at once (the proof is in
// docs/adr/001-edge-scoped-invalidation.md): if no edge passes, the old
// proximities are a fixed point of the new graph, and with no folded
// edge tying an endpoint's σ the expansion settles the same users in
// the same order from the same predecessors — the horizon equals a
// fresh materialization entry for entry.
//
// The scan is one pass over the list against the batch's filter,
// recording the σ of every endpoint it finds, then one pass over the
// edges.
func (h *SeekerHorizon) AffectedBy(b *EdgeBatch) bool {
	sigma := b.sigma
	for i := range sigma {
		sigma[i] = -1
	}
	for i := range h.list {
		u := h.list[i].User
		if !b.filter.has(u) {
			continue
		}
		if j, ok := slices.BinarySearch(b.ends, u); ok {
			sigma[j] = h.list[i].Prox
		}
	}
	for _, e := range b.edges {
		if h.raises(sigma[e.u], sigma[e.v], e.w) || h.raises(sigma[e.v], sigma[e.u], e.w) {
			return true
		}
	}
	return false
}

// raises reports whether an edge of weight w out of a user at proximity
// from can raise, or tie, the user at proximity to (negative: outside
// the horizon).
func (h *SeekerHorizon) raises(from, to, w float64) bool {
	if from < 0 {
		return false
	}
	c := from * w * h.alpha
	return c >= h.minSigma && (to < 0 || c >= to)
}

// endpointFilter is a 2^15-bit filter of user ids: AffectedBy tests a
// member against it before it binary-searches the endpoints.
type endpointFilter [1 << (horizonFilterShift - 6)]uint64

const horizonFilterShift = 15

// set makes the filter hold exactly ids.
func (f *endpointFilter) set(ids []graph.UserID) {
	clear(f[:])
	for _, u := range ids {
		b := horizonFilterBit(u)
		f[b>>6] |= 1 << (b & 63)
	}
}

func (f *endpointFilter) has(u graph.UserID) bool {
	b := horizonFilterBit(u)
	return f[b>>6]&(1<<(b&63)) != 0
}

// horizonFilterBit is a user's bit in the filter, by multiplicative
// hashing so that ids sharing low bits (or parity) spread out.
func horizonFilterBit(u graph.UserID) uint32 {
	return uint32(u) * 0x9E3779B1 >> (32 - horizonFilterShift)
}

// MemoryBytes is the resident size of the horizon: the 48-byte struct
// and its exact-size list of 16-byte entries.
func (h *SeekerHorizon) MemoryBytes() int { return 48 + cap(h.list)*16 }

// SocialMergeWithHorizon answers the query using a previously
// materialized horizon instead of expanding the graph. The horizon must
// belong to the query's seeker and must have been materialized with the
// engine's proximity parameters.
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

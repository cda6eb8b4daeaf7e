// Package proximity computes social proximity σ(s, v) between a seeker s
// and every other user v of the social network.
//
// The central abstraction is Iterator: an *incremental* best-first
// expansion of the network around the seeker that yields users in
// non-increasing proximity order, one at a time, with a certified upper
// bound on the proximity of every not-yet-yielded user. The core search
// algorithm (internal/core.SocialMerge) interleaves this iterator with
// posting-list accesses and uses the bound for early termination — this
// is what lets it answer personalized top-k queries after touching only a
// small neighbourhood of the seeker.
//
// The proximity function is the hop-damped maximum path product
//
//	σ(s, v) = max over paths p: s⇝v of  α^{|p|} · Π_{e∈p} w(e)
//
// with σ(s, s) = selfWeight. All factors lie in (0, 1], so σ is
// non-increasing along the frontier and the lazy Dijkstra expansion is
// correct and instance-optimal in the number of users settled.
//
// The cost per settled user is one pop of the frontier heap plus the
// relaxation of the user's row, and the rows dominate: on the fleetbench
// corpus at the serving parameters an expansion settles about 1,600
// users and scans about 36,000 edges. Two things keep it down. A user
// whose σ times the graph's largest weight (graph.Graph.MaxWeight) times
// α is below MinSigma can push no candidate to the floor, so its row is
// not read at all; that is about nine settled users in ten there, and
// most of the scans. And the heap pops bottom-up: the hole left at the
// root walks to a leaf along the better child, one comparison a level,
// and the last item sifts up from that leaf.
//
// The package also provides batch computation, random-walk-with-restart
// proximity (an alternative σ used in ablations), and landmark sketches
// that give cheap upper bounds used by the pruned approximate variants.
package proximity

import (
	"fmt"
	"sync"

	"repro/internal/graph"
)

// Params configures the proximity function.
type Params struct {
	// Alpha is the per-hop damping factor in (0, 1]. 1 disables damping.
	Alpha float64
	// SelfWeight is σ(s, s), the seeker's own contribution weight,
	// normally 1.
	SelfWeight float64
	// MinSigma is the proximity support floor: users with σ < MinSigma
	// are defined to have σ = 0 (they are outside the seeker's social
	// horizon and contribute nothing to scores). This is part of the
	// scoring *model*, not an approximation: every algorithm — exact
	// materialization included — computes the same floored function.
	// Because path products only shrink, no user beyond a below-floor
	// frontier can re-enter, so the floor equals truncating the
	// expansion. 0 disables the floor (unbounded horizon).
	MinSigma float64
}

// DefaultParams returns the standard configuration: no hop damping,
// self weight 1, unbounded horizon.
func DefaultParams() Params { return Params{Alpha: 1.0, SelfWeight: 1.0} }

// Validate checks parameter ranges.
func (p Params) Validate() error {
	if !(p.Alpha > 0 && p.Alpha <= 1) {
		return fmt.Errorf("proximity: Alpha %g outside (0,1]", p.Alpha)
	}
	if !(p.SelfWeight > 0 && p.SelfWeight <= 1) {
		return fmt.Errorf("proximity: SelfWeight %g outside (0,1]", p.SelfWeight)
	}
	if p.MinSigma < 0 || p.MinSigma > p.SelfWeight {
		return fmt.Errorf("proximity: MinSigma %g outside [0, SelfWeight=%g]", p.MinSigma, p.SelfWeight)
	}
	return nil
}

// Entry is one settled user with its proximity to the seeker and the hop
// count of the best path. The two int32s share a word ahead of the
// float: 16 bytes, and cached horizons hold thousands of entries each.
type Entry struct {
	User graph.UserID
	Hops int32
	Prox float64
}

// Iterator incrementally enumerates users by non-increasing proximity.
// It implements lazy Dijkstra over the max-product semiring: each Next
// call settles exactly one user and relaxes its out-edges.
//
// Per-user state is epoch-stamped rather than cleared: touched[v] ==
// epoch marks best[v] valid for the current expansion, and a settled
// user is encoded as best[v] < 0. Re-initializing an iterator for a new
// seeker therefore costs O(1), which is what makes pooling
// (AcquireIterator/Release) allocation-free and cheap.
type Iterator struct {
	g        *graph.Graph
	params   Params
	epoch    uint32
	touched  []uint32  // stamp: best[v] is valid for this expansion
	best     []float64 // tentative proximity; < 0 once settled
	pq       frontierHeap
	staged   []Entry // Settle's output buffer, recycled with the iterator
	expanded int
}

// settledMark is the best[] sentinel for a settled user: every real
// proximity is positive, so a negative value is unambiguous.
const settledMark = -1.0

// reset prepares the iterator for a fresh expansion, reusing all
// retained storage.
func (it *Iterator) reset(g *graph.Graph, seeker graph.UserID, params Params) error {
	if err := params.Validate(); err != nil {
		return err
	}
	n := g.NumUsers()
	if seeker < 0 || int(seeker) >= n {
		return fmt.Errorf("proximity: seeker %d outside [0,%d)", seeker, n)
	}
	it.g = g
	it.params = params
	if len(it.touched) < n {
		it.touched = make([]uint32, n)
		it.best = make([]float64, n)
		it.epoch = 0 // fresh zeroed stamps: any epoch ≥ 1 is valid
	}
	it.epoch++
	if it.epoch == 0 { // uint32 wraparound: stale stamps could collide
		clear(it.touched)
		it.epoch = 1
	}
	it.pq.items = it.pq.items[:0]
	it.staged = it.staged[:0]
	it.expanded = 0
	it.touched[seeker] = it.epoch
	it.best[seeker] = params.SelfWeight
	it.pq.push(frontierItem{u: seeker, p: params.SelfWeight, h: 0})
	return nil
}

// NewIterator starts an expansion around seeker. It performs O(1) work
// besides allocating the per-user state arrays; prefer AcquireIterator
// on hot paths, which recycles those arrays through a pool.
func NewIterator(g *graph.Graph, seeker graph.UserID, params Params) (*Iterator, error) {
	it := &Iterator{}
	if err := it.reset(g, seeker, params); err != nil {
		return nil, err
	}
	return it, nil
}

// iterPool recycles iterators (and their per-user state arrays, sized
// to the largest graph seen) across expansions.
var iterPool = sync.Pool{New: func() interface{} { return new(Iterator) }}

// AcquireIterator is NewIterator backed by a package pool: the per-user
// state arrays and the frontier heap are recycled, so a warm expansion
// performs no allocation. Callers must Release the iterator when done
// (and must not use it afterwards).
func AcquireIterator(g *graph.Graph, seeker graph.UserID, params Params) (*Iterator, error) {
	it := iterPool.Get().(*Iterator)
	if err := it.reset(g, seeker, params); err != nil {
		iterPool.Put(it)
		return nil, err
	}
	return it, nil
}

// Release returns the iterator to the pool. The iterator must not be
// used afterwards; the graph reference is dropped so a pooled iterator
// never pins a superseded snapshot.
func (it *Iterator) Release() {
	it.g = nil
	iterPool.Put(it)
}

func (it *Iterator) isSettled(u graph.UserID) bool {
	return it.touched[u] == it.epoch && it.best[u] < 0
}

// Next settles and returns the next-closest user. ok is false when the
// region inside the horizon (σ ≥ MinSigma) is exhausted. The first call
// always yields the seeker itself (with proximity SelfWeight).
func (it *Iterator) Next() (e Entry, ok bool) {
	for it.pq.len() > 0 {
		item := it.pq.pop()
		if it.isSettled(item.u) {
			continue
		}
		if item.p < it.params.MinSigma {
			// Everything left is below the floor: σ is defined 0 there.
			it.pq.items = it.pq.items[:0]
			return Entry{}, false
		}
		it.best[item.u] = settledMark
		it.expanded++
		if item.p*it.g.MaxWeight()*it.params.Alpha < it.params.MinSigma {
			// No edge of this row can reach the floor: each candidate
			// below is item.p·w·α, in this order, with w ≤ MaxWeight, and
			// a rounded product is monotone in each positive factor, so
			// the loop would skip every edge.
			return Entry{User: item.u, Prox: item.p, Hops: item.h}, true
		}
		nbrs, wts := it.g.Neighbors(item.u)
		for i, v := range nbrs {
			cand := item.p * wts[i] * it.params.Alpha
			if cand < it.params.MinSigma {
				// Below the horizon floor: σ is defined 0 there, and path
				// products only shrink, so the frontier never needs it.
				// Filtering at push time keeps the heap small.
				continue
			}
			if it.touched[v] == it.epoch {
				if it.best[v] < 0 || cand <= it.best[v] {
					continue // settled, or no improvement
				}
			} else {
				it.touched[v] = it.epoch
			}
			it.best[v] = cand
			it.pq.push(frontierItem{u: v, p: cand, h: item.h + 1})
		}
		return Entry{User: item.u, Prox: item.p, Hops: item.h}, true
	}
	return Entry{}, false
}

// Settle advances the expansion by up to n users, appending them to a
// buffer the iterator owns, and returns that buffer: every user settled
// through Settle since the expansion began, proximity-descending. Fewer
// than n new entries means the horizon is exhausted. The buffer is
// recycled with the iterator — it is valid until Release, and a caller
// that keeps the entries copies them out. Materializing a horizon this
// way grows pooled scratch instead of a fresh slice per expansion.
func (it *Iterator) Settle(n int) []Entry {
	for ; n > 0; n-- {
		e, ok := it.Next()
		if !ok {
			break
		}
		it.staged = append(it.staged, e)
	}
	return it.staged
}

// PeekBound returns a certified upper bound on the proximity of every
// user not yet returned by Next. When the frontier is empty or entirely
// below the horizon floor the bound is 0 (σ is defined 0 there).
func (it *Iterator) PeekBound() float64 {
	for it.pq.len() > 0 {
		top := it.pq.peek()
		if it.isSettled(top.u) {
			it.pq.pop() // drop stale entry lazily
			continue
		}
		if top.p < it.params.MinSigma {
			return 0
		}
		return top.p
	}
	return 0
}

// Expanded reports how many users have been settled so far; experiments
// use it as a hardware-independent cost measure.
func (it *Iterator) Expanded() int { return it.expanded }

type frontierItem struct {
	u graph.UserID
	p float64
	h int32
}

// frontierHeap is an allocation-light max-heap on proximity with id
// tie-breaking for determinism. A hand-rolled heap avoids the
// per-operation interface boxing of container/heap, which matters on
// the query hot path.
type frontierHeap struct {
	items []frontierItem
}

func (f *frontierHeap) len() int           { return len(f.items) }
func (f *frontierHeap) peek() frontierItem { return f.items[0] }

// before reports whether a pops ahead of b: the higher proximity, then
// the lower id. No two items in a heap are equal — a push needs a
// strictly better proximity for its user — so this is a strict total
// order and the pop sequence does not depend on the heap's layout.
func before(a, b frontierItem) bool {
	if a.p != b.p {
		return a.p > b.p
	}
	return a.u < b.u
}

func (f *frontierHeap) push(it frontierItem) {
	f.items = append(f.items, it)
	i := len(f.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(f.items[i], f.items[parent]) {
			break
		}
		f.items[i], f.items[parent] = f.items[parent], f.items[i]
		i = parent
	}
}

// pop removes the top item bottom-up: the hole it leaves at the root
// moves down to a leaf along the better child — one comparison a level,
// where sifting the last item down takes two — and the last item then
// sifts up from that leaf. It came from the bottom, so it rarely climbs
// far.
func (f *frontierHeap) pop() frontierItem {
	items := f.items
	top := items[0]
	last := len(items) - 1
	x := items[last]
	items = items[:last]
	f.items = items
	if last == 0 {
		return top
	}
	i := 0
	for c := 1; c < last; c = 2*i + 1 {
		if c+1 < last && before(items[c+1], items[c]) {
			c++
		}
		items[i] = items[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !before(x, items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = x
	return top
}

// All computes σ(seeker, v) for every user in one batch. It is the
// reference implementation the iterator is validated against and the
// workhorse of the exact baseline.
func All(g *graph.Graph, seeker graph.UserID, params Params) ([]float64, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if seeker < 0 || int(seeker) >= g.NumUsers() {
		return nil, fmt.Errorf("proximity: seeker %d outside [0,%d)", seeker, g.NumUsers())
	}
	prox := g.MaxProductDistances(seeker, params.Alpha, params.SelfWeight)
	if params.MinSigma > 0 {
		for i, p := range prox {
			if p < params.MinSigma {
				prox[i] = 0
			}
		}
	}
	return prox, nil
}

package core

import (
	"container/heap"

	"repro/internal/proximity"
	"repro/internal/tagstore"
	"repro/internal/topk"
)

// ContextMerge answers the query with the literature's
// materialize-then-merge baseline: it first expands the seeker's whole
// social ball (every user with σ above the proximity floor), then
// consumes the per-(friend, tag) posting lists through a priority queue
// ordered by σ·tf — always the globally largest undelivered score
// contribution first — while tracking the total undelivered mass for
// early termination.
//
// Contrast with SocialMerge: ContextMerge pays the full network
// expansion up front and orders individual postings perfectly, but its
// termination bound (the remaining-mass sum) is much weaker than
// SocialMerge's frontier bound, so it usually consumes far more
// postings. The Fig-12 experiment measures exactly this trade.
//
// Options: Theta, MaxHops and MaxUsers bound the up-front expansion
// (marking the answer approximate); RefineScores drains every list;
// LandmarkPrune and UseNeighborhoods are not meaningful here and are
// rejected.
func (e *Engine) ContextMerge(q Query, opts Options) (Answer, error) {
	if opts.LandmarkPrune || opts.UseNeighborhoods {
		return Answer{}, errUnsupportedOption
	}
	if err := e.validateQuery(q); err != nil {
		return Answer{}, err
	}
	tags := dedupTags(q.Tags)

	run := &cmRun{
		e:     e,
		k:     q.K,
		beta:  e.beta,
		tags:  tags,
		cands: make(map[tagstore.ItemID]*candidate),
		lists: make([]globalCursor, len(tags)),
	}
	for i, t := range tags {
		run.lists[i] = e.globalCursor(t)
	}

	// Phase 1: materialize the ball.
	it, err := proximity.AcquireIterator(e.g, q.Seeker, e.prox)
	if err != nil {
		return Answer{}, err
	}
	defer it.Release()
	for iter := 0; ; iter++ {
		if iter%64 == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				return Answer{}, err
			}
		}
		entry, ok := it.Next()
		if !ok {
			break
		}
		if opts.Theta > 0 && entry.Prox < opts.Theta {
			run.cutoffFired = true
			break
		}
		if opts.MaxHops > 0 && int(entry.Hops) > opts.MaxHops {
			run.cutoffFired = true
			break
		}
		run.addUserCursors(entry.User, entry.Prox)
		run.settled++
		run.acc.UsersExpanded++
		if opts.MaxUsers > 0 && run.settled >= opts.MaxUsers {
			run.cutoffFired = true
			break
		}
	}

	// Phase 2: merge.
	certified, err := run.merge(opts)
	if err != nil {
		return Answer{}, err
	}

	h := topk.NewHeap(q.K)
	for item, c := range run.cands {
		if c.lower > 0 {
			h.Offer(item, c.lower)
		}
	}
	return Answer{
		Results:      h.Results(),
		Exact:        certified && !run.cutoffFired,
		Access:       run.acc,
		UsersSettled: run.settled,
	}, nil
}

// candidate is the map-backed NRA interval used by the baseline
// algorithms (the SocialMerge hot path uses topk.Table instead).
type candidate struct {
	lower float64 // confirmed score mass (social seen + exact global part)
	rem   int64   // Σ_t gtf(i,t) − Σ_t seen social tf(i,t)
}

// cmCursor is one live per-(user,tag) posting list.
type cmCursor struct {
	sigma float64
	list  []tagstore.UserPosting
	pos   int
	tag   int // index into run.tags
}

// priority is the score contribution of the cursor's head posting.
func (c *cmCursor) priority() float64 { return c.sigma * float64(c.list[c.pos].TF) }

// remaining is the σ-weighted mass still undelivered by this cursor.
func (c *cmCursor) remaining() float64 {
	var tf int64
	for _, p := range c.list[c.pos:] {
		tf += int64(p.TF)
	}
	return c.sigma * float64(tf)
}

type cmHeap []*cmCursor

func (h cmHeap) Len() int            { return len(h) }
func (h cmHeap) Less(i, j int) bool  { return h[i].priority() > h[j].priority() }
func (h cmHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cmHeap) Push(x interface{}) { *h = append(*h, x.(*cmCursor)) }
func (h *cmHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return c
}

type cmRun struct {
	e     *Engine
	k     int
	beta  float64
	tags  []tagstore.TagID
	cands map[tagstore.ItemID]*candidate

	lists []globalCursor // global lists (candidate discovery + β<1 mass)

	cursors  cmHeap
	remTotal float64 // Σ over live cursors of σ·(undelivered tf): social uncertainty
	sigmaMax float64 // max σ in the ball (static; bounds per-item remainders)

	acc         topk.Access
	settled     int
	cutoffFired bool
}

// addUserCursors registers user v's non-empty lists for the query tags.
func (r *cmRun) addUserCursors(v int32, sigma float64) {
	if sigma > r.sigmaMax {
		r.sigmaMax = sigma
	}
	if r.beta == 0 {
		return
	}
	for ti, t := range r.tags {
		list := r.e.store.UserList(v, t)
		if len(list) == 0 {
			continue
		}
		c := &cmCursor{sigma: sigma, list: list, tag: ti}
		r.remTotal += c.remaining()
		heap.Push(&r.cursors, c)
	}
}

// ensureCandidate mirrors mergeRun.ensureCandidate: random-accesses the
// global frequencies on first sight to seed rem and the (1−β) part.
func (r *cmRun) ensureCandidate(item tagstore.ItemID) *candidate {
	if c, ok := r.cands[item]; ok {
		return c
	}
	c := &candidate{}
	var gsum int64
	for _, t := range r.tags {
		gsum += int64(r.e.store.GlobalTF(item, t))
		r.acc.Random++
	}
	c.rem = gsum
	c.lower = (1 - r.beta) * float64(gsum)
	r.cands[item] = c
	return c
}

func (r *cmRun) barSum() float64 {
	var sum float64
	for i := range r.lists {
		if !r.lists[i].done() {
			sum += float64(r.lists[i].head().TF)
		}
	}
	return sum
}

func (r *cmRun) advanceGlobalCursors() bool {
	moved := false
	for i := range r.lists {
		if r.lists[i].done() {
			continue
		}
		p := r.lists[i].next()
		r.acc.Sequential++
		moved = true
		r.ensureCandidate(p.Item)
	}
	return moved
}

// canStop certifies the current top-k set: social uncertainty of any
// item is bounded by min(remTotal, σmax·rem(i)); completely unseen
// items additionally by the global-list bar.
func (r *cmRun) canStop() bool {
	h := topk.NewHeap(r.k)
	for item, c := range r.cands {
		if c.lower > 0 {
			h.Offer(item, c.lower)
		}
	}
	tau := h.Threshold()
	members := make(map[tagstore.ItemID]bool, r.k)
	for _, res := range h.Results() {
		members[res.Item] = true
	}
	bar := r.barSum()
	unseenSocial := r.remTotal
	if s := r.sigmaMax * bar; s < unseenSocial {
		unseenSocial = s
	}
	if tau < r.beta*unseenSocial+(1-r.beta)*bar-certEps {
		return false
	}
	for item, c := range r.cands {
		if members[item] {
			continue
		}
		rem := r.remTotal
		if s := r.sigmaMax * float64(c.rem); s < rem {
			rem = s
		}
		if tau < c.lower+r.beta*rem-certEps {
			return false
		}
	}
	return true
}

// merge drains the cursor queue in σ·tf order, interleaving global-list
// rounds, until certified, exhausted, or cancelled. Reports
// certification.
func (r *cmRun) merge(opts Options) (bool, error) {
	const checkEvery = 64
	sinceCheck := 0
	sincePoll := 0
	for r.cursors.Len() > 0 {
		if sincePoll++; sincePoll >= checkEvery {
			sincePoll = 0
			if err := ctxErr(opts.Ctx); err != nil {
				return false, err
			}
		}
		if !opts.RefineScores {
			sinceCheck++
			if sinceCheck >= checkEvery {
				sinceCheck = 0
				if r.canStop() {
					return true, nil
				}
			}
		}
		c := r.cursors[0]
		p := c.list[c.pos]
		contribution := c.priority()
		c.pos++
		r.acc.Sequential++
		r.remTotal -= contribution
		if r.remTotal < 0 { // float drift; the true remainder is ≥ 0
			r.remTotal = 0
		}
		if c.pos < len(c.list) {
			heap.Fix(&r.cursors, 0)
		} else {
			heap.Pop(&r.cursors)
		}

		cand := r.ensureCandidate(p.Item)
		cand.lower += r.beta * contribution
		cand.rem -= int64(p.TF)

		// One global round every few pops keeps the unseen-item bar
		// decaying at a rate comparable to SocialMerge's.
		if sinceCheck%4 == 0 {
			r.advanceGlobalCursors()
		}
	}
	r.remTotal = 0
	// Social mass fully delivered; finish the global walk for the
	// (1−β) component and the unseen bound.
	for i := 0; ; i++ {
		if i%8 == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				return false, err
			}
			if r.canStop() {
				return true, nil
			}
		}
		if !r.advanceGlobalCursors() {
			return r.canStop(), nil
		}
	}
}

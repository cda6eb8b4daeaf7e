package core

import (
	"repro/internal/proximity"
	"repro/internal/tagstore"
	"repro/internal/topk"
)

// SocialTA answers the query with a Fagin-style threshold algorithm
// enriched with social random access: it materializes the seeker's
// proximity vector, then walks the global per-tag posting lists in
// sorted order, completing every newly seen item's *exact* score
// immediately by probing the item-pivoted index (who tagged this item,
// at what proximity). It stops when the k-th exact score dominates the
// sorted-access frontier: any unseen item has per-tag frequency at most
// bar(t), and social proximity at most σmax, so its score is bounded by
// (β·σmax + (1−β))·Σ_t bar(t).
//
// Trade-off measured in Fig 12: SocialTA's random accesses are
// item-proportional (every candidate costs its full tagger list), and
// it must pay the whole proximity materialization like ExactSocial —
// but its scores are exact immediately and its threshold uses the
// steep global frequency decay, so on Zipf-shaped corpora with small k
// it terminates after very few sorted rounds.
//
// Requires AttachItemIndex. Options: Theta/MaxHops/MaxUsers bound the
// proximity materialization (approximate answers); RefineScores is a
// no-op (scores are always exact); LandmarkPrune and UseNeighborhoods
// are rejected.
func (e *Engine) SocialTA(q Query, opts Options) (Answer, error) {
	if e.items == nil {
		return Answer{}, errNoItemIndex
	}
	if opts.LandmarkPrune || opts.UseNeighborhoods {
		return Answer{}, errUnsupportedOption
	}
	if err := e.validateQuery(q); err != nil {
		return Answer{}, err
	}
	tags := dedupTags(q.Tags)

	var acc topk.Access
	// Materialize σ. The iterator honours the approximation bounds; an
	// unbounded run is equivalent to proximity.All.
	prox := make([]float64, e.g.NumUsers())
	it, err := proximity.AcquireIterator(e.g, q.Seeker, e.prox)
	if err != nil {
		return Answer{}, err
	}
	defer it.Release()
	settled := 0
	sigmaMax := 0.0
	cutoff := false
	for {
		if settled%256 == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				return Answer{}, err
			}
		}
		entry, ok := it.Next()
		if !ok {
			break
		}
		if opts.Theta > 0 && entry.Prox < opts.Theta {
			cutoff = true
			break
		}
		if opts.MaxHops > 0 && int(entry.Hops) > opts.MaxHops {
			cutoff = true
			break
		}
		prox[entry.User] = entry.Prox
		if entry.Prox > sigmaMax {
			sigmaMax = entry.Prox
		}
		settled++
		acc.UsersExpanded++
		if opts.MaxUsers > 0 && settled >= opts.MaxUsers {
			cutoff = true
			break
		}
	}

	lists := make([]globalCursor, len(tags))
	for i, t := range tags {
		lists[i] = e.globalCursor(t)
	}
	scored := make(map[tagstore.ItemID]bool)
	h := topk.NewHeap(q.K)

	barSum := func() float64 {
		var s float64
		for i := range lists {
			if !lists[i].done() {
				s += float64(lists[i].head().TF)
			}
		}
		return s
	}

	// scoreItem completes item's exact score by random access.
	scoreItem := func(item tagstore.ItemID) {
		if scored[item] {
			return
		}
		scored[item] = true
		var social float64
		var global int64
		for _, t := range tags {
			global += int64(e.store.GlobalTF(item, t))
			acc.Random++
			for _, tp := range e.items.Taggers(item, t) {
				acc.Random++
				if p := prox[tp.User]; p > 0 {
					social += p * float64(tp.TF)
				}
			}
		}
		score := e.beta*social + (1-e.beta)*float64(global)
		if score > 0 {
			h.Offer(item, score)
		}
	}

	certified := false
	for round := 0; ; round++ {
		if round%64 == 0 {
			if err := ctxErr(opts.Ctx); err != nil {
				return Answer{}, err
			}
		}
		// Unseen-item bound at the current frontier.
		bound := (e.beta*sigmaMax + (1 - e.beta)) * barSum()
		if h.Full() && h.Threshold() >= bound-certEps {
			certified = true
			break
		}
		if bound == 0 {
			// Lists drained: every item with positive score was seen.
			certified = true
			break
		}
		moved := false
		for i := range lists {
			if lists[i].done() {
				continue
			}
			p := lists[i].next()
			acc.Sequential++
			moved = true
			scoreItem(p.Item)
		}
		if !moved {
			certified = true
			break
		}
	}

	return Answer{
		Results:      h.Results(),
		Exact:        certified && !cutoff,
		Access:       acc,
		UsersSettled: settled,
	}, nil
}

package core

import (
	"context"

	"repro/internal/proximity"
	"repro/internal/tagstore"
	"repro/internal/topk"
)

// ExactSocial answers the query by materializing σ(seeker, ·) over the
// entire network and scoring every item touched by any user with
// positive proximity. It is exact by construction and serves as the
// correctness oracle and the expensive baseline of Figs 4–9.
func (e *Engine) ExactSocial(q Query) (Answer, error) {
	return e.ExactSocialCtx(nil, q)
}

// ExactSocialCtx is ExactSocial with cancellation checkpoints in the
// network-wide scoring sweep.
func (e *Engine) ExactSocialCtx(ctx context.Context, q Query) (Answer, error) {
	if err := e.validateQuery(q); err != nil {
		return Answer{}, err
	}
	tags := dedupTags(q.Tags)

	var acc topk.Access
	if err := ctxErr(ctx); err != nil {
		return Answer{}, err
	}
	prox, err := proximity.All(e.g, q.Seeker, e.prox)
	if err != nil {
		return Answer{}, err
	}
	acc.UsersExpanded = int64(e.g.NumUsers())

	scores := make(map[tagstore.ItemID]float64)
	if e.beta > 0 {
		for u, p := range prox {
			if u%1024 == 0 {
				if err := ctxErr(ctx); err != nil {
					return Answer{}, err
				}
			}
			if p == 0 {
				continue
			}
			for _, t := range tags {
				for _, up := range e.store.UserList(int32(u), t) {
					scores[up.Item] += e.beta * p * float64(up.TF)
					acc.Sequential++
				}
			}
		}
	}
	if e.beta < 1 {
		for _, t := range tags {
			blocks, _ := e.store.GlobalBlocks(t)
			for _, b := range blocks {
				for _, gp := range b {
					scores[gp.Item] += (1 - e.beta) * float64(gp.TF)
					acc.Sequential++
				}
			}
		}
	}

	h := topk.NewHeap(q.K)
	for item, s := range scores {
		if s > 0 {
			h.Offer(item, s)
		}
	}
	settled := 0
	for _, p := range prox {
		if p > 0 {
			settled++
		}
	}
	return Answer{Results: h.Results(), Exact: true, Access: acc, UsersSettled: settled}, nil
}

// Score computes the exact score of a single item for a seeker and tag
// set. It exists for spot verification and for the example programs; it
// costs a full proximity computation.
func (e *Engine) Score(seeker int32, tags []tagstore.TagID, item tagstore.ItemID) (float64, error) {
	q := Query{Seeker: seeker, Tags: tags, K: 1}
	if err := e.validateQuery(q); err != nil {
		return 0, err
	}
	tags = dedupTags(tags)
	prox, err := proximity.All(e.g, seeker, e.prox)
	if err != nil {
		return 0, err
	}
	var s float64
	for u, p := range prox {
		if p == 0 {
			continue
		}
		for _, t := range tags {
			if tf := e.store.TF(int32(u), item, t); tf > 0 {
				s += e.beta * p * float64(tf)
			}
		}
	}
	for _, t := range tags {
		s += (1 - e.beta) * float64(e.store.GlobalTF(item, t))
	}
	return s, nil
}

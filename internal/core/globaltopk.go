package core

import (
	"context"

	"repro/internal/tagstore"
	"repro/internal/topk"
)

// GlobalTopK answers the query without any personalization:
//
//	gscore(Q, i) = Σ_{t∈Q} gtf(i, t)
//
// using Fagin's Threshold Algorithm over the per-tag global posting
// lists (sorted access in round-robin, random access to complete each
// newly seen item, termination when the k-th best score reaches the sum
// of current list frontiers). It is the fast-but-unpersonalized baseline
// of Figs 4–5 and the quality reference point of Fig 11.
func (e *Engine) GlobalTopK(q Query) (Answer, error) {
	return e.GlobalTopKCtx(nil, q)
}

// GlobalTopKCtx is GlobalTopK with cancellation checkpoints in the
// sorted-access rounds.
func (e *Engine) GlobalTopKCtx(ctx context.Context, q Query) (Answer, error) {
	if err := e.validateQuery(q); err != nil {
		return Answer{}, err
	}
	tags := dedupTags(q.Tags)

	var acc topk.Access
	lists := make([]globalCursor, len(tags))
	for i, t := range tags {
		lists[i] = e.globalCursor(t)
	}
	h := topk.NewHeap(q.K)
	seen := make(map[tagstore.ItemID]bool)

	frontierSum := func() (float64, bool) {
		var sum float64
		active := false
		for i := range lists {
			if !lists[i].done() {
				sum += float64(lists[i].head().TF)
				active = true
			}
		}
		return sum, active
	}

	for round := 0; ; round++ {
		if round%64 == 0 {
			if err := ctxErr(ctx); err != nil {
				return Answer{}, err
			}
		}
		threshold, active := frontierSum()
		if !active {
			break
		}
		if h.Full() && h.Threshold() >= threshold {
			break
		}
		// One round of sorted access across all lists.
		for i := range lists {
			if lists[i].done() {
				continue
			}
			p := lists[i].next()
			acc.Sequential++
			if seen[p.Item] {
				continue
			}
			seen[p.Item] = true
			// Random-access the remaining dimensions to complete the
			// item's score (TA completes each item on first sight).
			score := 0.0
			for j, t := range tags {
				if j == i {
					score += float64(p.TF)
					continue
				}
				score += float64(e.store.GlobalTF(p.Item, t))
				acc.Random++
			}
			h.Offer(p.Item, score)
		}
	}
	return Answer{Results: h.Results(), Exact: true, Access: acc}, nil
}

// GlobalScoreAll computes the full non-personalized score vector; it is
// the oracle GlobalTopK is tested against.
func (e *Engine) GlobalScoreAll(tags []tagstore.TagID) map[tagstore.ItemID]float64 {
	tags = dedupTags(tags)
	scores := make(map[tagstore.ItemID]float64)
	for _, t := range tags {
		blocks, _ := e.store.GlobalBlocks(t)
		for _, b := range blocks {
			for _, p := range b {
				scores[p.Item] += float64(p.TF)
			}
		}
	}
	return scores
}

// globalCursor walks one tag's global posting list front to back over
// its blocks (tagstore.Store.GlobalBlocks): the next posting is cur[0],
// cur being the rest of the block the cursor is in, and the list is
// spent once cur is empty — no block is empty.
type globalCursor struct {
	cur  []tagstore.Posting
	rest [][]tagstore.Posting // the blocks after cur's
}

// globalCursor returns a cursor at the head of tag t's global list.
func (e *Engine) globalCursor(t tagstore.TagID) globalCursor {
	blocks, _ := e.store.GlobalBlocks(t)
	if len(blocks) == 0 {
		return globalCursor{}
	}
	return globalCursor{cur: blocks[0], rest: blocks[1:]}
}

// done reports whether the list is spent.
func (c *globalCursor) done() bool { return len(c.cur) == 0 }

// head returns the next posting of a list that is not spent.
func (c *globalCursor) head() tagstore.Posting { return c.cur[0] }

// next returns the next posting of a list that is not spent and moves
// past it.
func (c *globalCursor) next() tagstore.Posting {
	p := c.cur[0]
	if c.cur = c.cur[1:]; len(c.cur) == 0 && len(c.rest) > 0 {
		c.cur, c.rest = c.rest[0], c.rest[1:]
	}
	return p
}

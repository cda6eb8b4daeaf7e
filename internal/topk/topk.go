// Package topk provides the building blocks shared by all top-k query
// algorithms in this repository: a bounded result heap, a candidate table
// that keeps each item's confirmed lower bound and its top-k set (the
// NRA bookkeeping), and an access accountant that records the
// hardware-independent cost measures reported in the experiments.
package topk

import (
	"container/heap"
	"slices"
)

// Result is a scored item in a final answer list.
type Result struct {
	Item  int32
	Score float64
}

// Heap is a bounded min-heap keeping the k highest-scoring items seen.
// Ties are broken toward the smaller item id (deterministic results).
// The zero value is unusable; construct with NewHeap.
type Heap struct {
	k     int
	items resultHeap
}

// NewHeap returns a heap retaining the top k results. k must be >= 1.
func NewHeap(k int) *Heap {
	if k < 1 {
		k = 1
	}
	return &Heap{k: k}
}

// K reports the heap's capacity.
func (h *Heap) K() int { return h.k }

// Len reports how many results are currently held (≤ k).
func (h *Heap) Len() int { return len(h.items) }

// Offer inserts the result if it beats the current k-th best. It reports
// whether the heap contents changed.
func (h *Heap) Offer(item int32, score float64) bool {
	if len(h.items) < h.k {
		heap.Push(&h.items, Result{Item: item, Score: score})
		return true
	}
	worst := h.items[0]
	if score > worst.Score || (score == worst.Score && item < worst.Item) {
		h.items[0] = Result{Item: item, Score: score}
		heap.Fix(&h.items, 0)
		return true
	}
	return false
}

// Threshold returns the k-th best score currently held, or 0 when fewer
// than k results are present (any item could still enter).
func (h *Heap) Threshold() float64 {
	if len(h.items) < h.k {
		return 0
	}
	return h.items[0].Score
}

// Full reports whether k results are held.
func (h *Heap) Full() bool { return len(h.items) >= h.k }

// Results returns the held results sorted by (score desc, item asc).
func (h *Heap) Results() []Result {
	out := make([]Result, len(h.items))
	copy(out, h.items)
	SortResults(out)
	return out
}

// SortResults orders results by score descending, breaking ties by item
// id ascending. All algorithms use this order so answers are comparable.
// slices.SortFunc keeps it allocation-free (sort.Slice boxes through an
// interface), which matters on the zero-alloc serving path.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Item < b.Item:
			return -1
		case a.Item > b.Item:
			return 1
		default:
			return 0
		}
	})
}

// resultHeap is a min-heap on (score, then larger item id first so the
// deterministically-worst entry is at the root).
type resultHeap []Result

func (h resultHeap) Len() int { return len(h) }
func (h resultHeap) Less(i, j int) bool {
	if h[i].Score != h[j].Score {
		return h[i].Score < h[j].Score
	}
	return h[i].Item > h[j].Item
}
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Result)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	r := old[n-1]
	*h = old[:n-1]
	return r
}

// TopKExact selects the k best entries from a full score vector,
// skipping zero scores. It is the reference the threshold algorithms are
// tested against.
func TopKExact(scores []float64, k int) []Result {
	h := NewHeap(k)
	for i, s := range scores {
		if s > 0 {
			h.Offer(int32(i), s)
		}
	}
	return h.Results()
}

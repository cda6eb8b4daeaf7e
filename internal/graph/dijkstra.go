package graph

// MaxProductDistances computes, for every vertex v, the best (maximum)
// path product from src: max over paths p:src⇝v of Π_{e∈p} w(e), damped
// by alpha per hop (alpha ∈ (0,1]; alpha = 1 disables damping). src
// itself gets selfWeight. Unreachable vertices get 0.
//
// Because all edge weights and alpha lie in (0,1], the product is
// monotonically non-increasing along any path, so a max-heap Dijkstra
// settles vertices in non-increasing proximity order — the property the
// incremental proximity iterator (package proximity) and the SocialMerge
// threshold argument rely on. This batch form is used by the exact
// baseline and by tests that validate the iterator.
//
// The implementation uses a hand-rolled binary heap of value entries:
// the standard library's container/heap boxes every push into an
// interface value, and the resulting per-relaxation allocation dominates
// the run time on large graphs. It keeps this plain heap rather than the
// iterator's band frontier on purpose: it is the independent batch
// reference behind ExactSocial, proximity.All and the landmarks, which
// the iterator is tested against, and one shared frontier could hide a
// bug in both.
func (g *Graph) MaxProductDistances(src UserID, alpha, selfWeight float64) []float64 {
	n := g.NumUsers()
	prox := make([]float64, n)
	if n == 0 {
		return prox
	}
	settled := make([]bool, n)
	pq := newProxHeap(64)
	prox[src] = selfWeight
	pq.push(proxItem{u: src, p: selfWeight})
	for pq.len() > 0 {
		it := pq.pop()
		if settled[it.u] {
			continue
		}
		settled[it.u] = true
		nbrs, wts := g.Neighbors(it.u)
		for i, v := range nbrs {
			if settled[v] {
				continue
			}
			cand := it.p * wts[i] * alpha
			if cand > prox[v] {
				prox[v] = cand
				pq.push(proxItem{u: v, p: cand})
			}
		}
	}
	return prox
}

type proxItem struct {
	u UserID
	p float64
}

// proxHeap is an allocation-light max-heap on proximity with
// deterministic id tie-breaking.
type proxHeap struct {
	items []proxItem
}

func newProxHeap(capacity int) *proxHeap {
	return &proxHeap{items: make([]proxItem, 0, capacity)}
}

func (h *proxHeap) len() int { return len(h.items) }

func (h *proxHeap) less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	if a.p != b.p {
		return a.p > b.p
	}
	return a.u < b.u
}

func (h *proxHeap) push(it proxItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

func (h *proxHeap) peek() proxItem { return h.items[0] }

func (h *proxHeap) pop() proxItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.siftDown(0)
	return top
}

func (h *proxHeap) siftDown(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && h.less(l, best) {
			best = l
		}
		if r < n && h.less(r, best) {
			best = r
		}
		if best == i {
			return
		}
		h.items[i], h.items[best] = h.items[best], h.items[i]
		i = best
	}
}

package topk

// Cand is one tracked candidate of a Table: the NRA bookkeeping pair
// (confirmed lower bound, upper-bound remainder key) plus the table's
// internal heap position. Callers mutate Lower and Rem directly; after
// raising Lower they either call Table.Promote, keeping the top-k
// current, or call Table.Select once before reading Tau, InTopK or the
// results.
type Cand struct {
	Item  int32
	Lower float64 // confirmed score mass
	Rem   int64   // algorithm-specific upper-bound remainder
	pos   int32   // index into the top-k heap, -1 when outside
}

// InTopK reports whether the candidate currently sits in the table's
// top-k set.
func (c *Cand) InTopK() bool { return c.pos >= 0 }

// Table is the slice-backed candidate bookkeeping of the query hot
// path: a dense epoch-stamped slot array
// gives O(1) item lookup without hashing, candidates live in one
// contiguous slice (cache-friendly to scan during certification), and
// a bounded min-heap over candidate indexes holds the top-k set and its
// threshold τ. A caller that tests τ while scores grow keeps the heap
// current with Promote — O(log k) per score increase instead of a full
// rebuild per stop check; one that reads it only at the end raises
// scores freely and builds the heap once with Select; one whose scores
// are final when they reach the table Offers them, and the table keeps
// only the k it must.
//
// All storage is retained across Reset calls, so a pooled Table runs
// allocation-free once warm. A Table is not safe for concurrent use;
// recycle it through a sync.Pool or a per-shard single-writer loop.
type Table struct {
	epoch uint32
	stamp []uint32 // stamp[item] == epoch ⇒ slot[item] is valid
	slot  []int32  // item → index into cands
	cands []Cand

	k    int
	heap []int32 // candidate indexes; min-heap, root = worst member
}

// NewTable returns an empty table; call Reset before use.
func NewTable() *Table { return &Table{} }

// Reset prepares the table for a universe of `universe` items and a
// top-k of size k (≥ 1). It is O(1) amortized: slots are invalidated by
// bumping the epoch, not by clearing. The item index grows to the
// universe here and only Ensure reads it; a caller that only Offers
// passes 0 and keeps the index at whatever size it already had.
func (t *Table) Reset(universe, k int) {
	if k < 1 {
		k = 1
	}
	t.k = k
	t.cands = t.cands[:0]
	t.heap = t.heap[:0]
	if len(t.stamp) < universe {
		t.stamp = make([]uint32, universe)
		t.slot = make([]int32, universe)
		t.epoch = 0
	}
	t.epoch++
	if t.epoch == 0 { // uint32 wraparound: stale stamps could collide
		clear(t.stamp)
		t.epoch = 1
	}
}

// Len reports the number of candidates held: every item Ensure has
// seen, and at most k after Offers.
func (t *Table) Len() int { return len(t.cands) }

// Ensure returns the candidate index for an item, creating a zero-value
// candidate (Lower 0, Rem 0, outside the top-k) on first sight.
func (t *Table) Ensure(item int32) (idx int32, created bool) {
	if t.stamp[item] == t.epoch {
		return t.slot[item], false
	}
	idx = int32(len(t.cands))
	t.stamp[item] = t.epoch
	t.slot[item] = idx
	t.cands = append(t.cands, Cand{Item: item, pos: -1})
	return idx, true
}

// At returns the candidate at an index. The pointer is invalidated by
// the next Ensure call (the backing slice may grow); do not retain it
// across insertions.
func (t *Table) At(idx int32) *Cand { return &t.cands[idx] }

// All returns the dense candidate slice (insertion order). It aliases
// internal storage and is invalidated by Ensure/Reset.
func (t *Table) All() []Cand { return t.cands }

// Tau returns the threshold: the k-th best confirmed lower bound, or 0
// while fewer than k positive candidates exist. Because lower bounds
// only grow, Tau is non-decreasing while every raise is promoted.
func (t *Table) Tau() float64 {
	if len(t.heap) < t.k {
		return 0
	}
	return t.cands[t.heap[0]].Lower
}

// Select rebuilds the top-k set from scratch over every candidate with
// Lower > 0, whatever Promote calls did or did not happen before. Under
// the total order (score desc, item asc) the top k is unique, so the
// members, Tau, InTopK and AppendTopResults come out as per-raise
// promotion would have left them. Promote may resume after it.
func (t *Table) Select() {
	for _, idx := range t.heap {
		t.cands[idx].pos = -1
	}
	t.heap = t.heap[:0]
	for i := range t.cands {
		if t.cands[i].Lower > 0 {
			t.Promote(int32(i))
		}
	}
}

// Offer hands the table an item whose score is final, keeping only the
// top k; offer each item at most once between Resets. The item becomes
// a member while fewer than k are held, or when it beats the root (the
// worst member) under (score desc, item asc), which it then evicts,
// reusing the root's candidate slot. So the table never holds more than
// k candidates, and it ends holding the top k of everything offered, in
// any offer order. Like Select, it passes over lower ≤ 0. Offer reads
// and writes no item index, so a table fed only by Offer may be Reset
// for a universe of 0; do not mix it with Ensure or Promote between two
// Resets.
func (t *Table) Offer(item int32, lower float64) {
	if !(lower > 0) {
		return
	}
	if len(t.heap) < t.k {
		idx := int32(len(t.cands))
		t.cands = append(t.cands, Cand{Item: item, Lower: lower, pos: int32(len(t.heap))})
		t.heap = append(t.heap, idx)
		t.siftUp(len(t.heap) - 1)
		return
	}
	root := &t.cands[t.heap[0]]
	if lower > root.Lower || (lower == root.Lower && item < root.Item) {
		*root = Cand{Item: item, Lower: lower, pos: 0}
		t.siftDown(0)
	}
}

// Promote restores the top-k invariant after the candidate's Lower
// increased. Call it only for candidates with Lower > 0 — zero-lower
// candidates are by convention never members (they tie with every
// unseen item). The ordering is the repository-wide total order
// (score desc, item asc), so the maintained set is exactly the set a
// full rebuild over all candidates would produce, independent of
// update order: members only improve, τ only grows, and a non-member
// whose last comparison lost against τ can never belong later without
// another Promote.
func (t *Table) Promote(idx int32) {
	c := &t.cands[idx]
	if c.pos >= 0 {
		// Already a member: its Lower grew, so it may need to sink away
		// from the root (the root is the worst member).
		t.siftDown(int(c.pos))
		return
	}
	if len(t.heap) < t.k {
		c.pos = int32(len(t.heap))
		t.heap = append(t.heap, idx)
		t.siftUp(int(c.pos))
		return
	}
	root := &t.cands[t.heap[0]]
	if c.Lower > root.Lower || (c.Lower == root.Lower && c.Item < root.Item) {
		root.pos = -1
		t.heap[0] = idx
		c.pos = 0
		t.siftDown(0)
	}
}

// worse reports whether candidate a ranks strictly below candidate b in
// the total order (score desc, item asc) — i.e. a belongs closer to the
// min-heap root.
func (t *Table) worse(a, b int32) bool {
	ca, cb := &t.cands[a], &t.cands[b]
	if ca.Lower != cb.Lower {
		return ca.Lower < cb.Lower
	}
	return ca.Item > cb.Item
}

func (t *Table) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(t.heap[i], t.heap[parent]) {
			break
		}
		t.swap(i, parent)
		i = parent
	}
}

func (t *Table) siftDown(i int) {
	n := len(t.heap)
	for {
		l, r := 2*i+1, 2*i+2
		worst := i
		if l < n && t.worse(t.heap[l], t.heap[worst]) {
			worst = l
		}
		if r < n && t.worse(t.heap[r], t.heap[worst]) {
			worst = r
		}
		if worst == i {
			return
		}
		t.swap(i, worst)
		i = worst
	}
}

func (t *Table) swap(i, j int) {
	t.heap[i], t.heap[j] = t.heap[j], t.heap[i]
	t.cands[t.heap[i]].pos = int32(i)
	t.cands[t.heap[j]].pos = int32(j)
}

// AppendTopResults appends the current top-k members to buf (reusing
// its capacity) sorted by (score desc, item asc) and returns it.
func (t *Table) AppendTopResults(buf []Result) []Result {
	for _, idx := range t.heap {
		c := &t.cands[idx]
		buf = append(buf, Result{Item: c.Item, Score: c.Lower})
	}
	SortResults(buf[len(buf)-len(t.heap):])
	return buf
}

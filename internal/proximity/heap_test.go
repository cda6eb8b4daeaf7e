package proximity

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// heapModel is what frontierHeap must behave as: the live items, popped
// in (p desc, u asc) order. It sorts on every pop and never calls
// before, so a fault in before or in the heap's walk cannot hide in it.
type heapModel []frontierItem

func (m *heapModel) pop() frontierItem {
	slices.SortFunc(*m, func(a, b frontierItem) int {
		if c := cmp.Compare(b.p, a.p); c != 0 {
			return c
		}
		return cmp.Compare(a.u, b.u)
	})
	top := (*m)[0]
	*m = (*m)[1:]
	return top
}

// randomFrontierItem draws an item that is not live in m. Proximities
// come from a handful of values, so most comparisons that decide a pop
// are ties broken by id, and ids from a small range, so a user is in
// the heap at several proximities at once, as stale entries are.
func randomFrontierItem(rng *rand.Rand, m heapModel) frontierItem {
	for {
		it := frontierItem{
			u: graph.UserID(rng.Intn(24)),
			p: float64(1+rng.Intn(6)) / 8,
			h: int32(rng.Intn(5)),
		}
		if !slices.ContainsFunc(m, func(x frontierItem) bool { return x.u == it.u && x.p == it.p }) {
			return it
		}
	}
}

func checkPop(t *testing.T, f *frontierHeap, m *heapModel, what string) {
	t.Helper()
	if f.len() != len(*m) {
		t.Fatalf("%s: heap holds %d items, model %d", what, f.len(), len(*m))
	}
	want := m.pop()
	if got := f.peek(); got != want {
		t.Fatalf("%s: peek = %+v, want %+v", what, got, want)
	}
	if got := f.pop(); got != want {
		t.Fatalf("%s: pop = %+v, want %+v", what, got, want)
	}
}

// TestFrontierHeapMatchesSort holds frontierHeap's pop sequence to a
// sort by (p desc, u asc): first filled to every size from 0 to 40 —
// odd and even, so the last level's lone left child comes up both ways
// — and drained to empty, then under seeded random interleavings of
// push and pop that also end drained.
func TestFrontierHeapMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var f frontierHeap
	for n := 0; n <= 40; n++ {
		var m heapModel
		for i := 0; i < n; i++ {
			it := randomFrontierItem(rng, m)
			f.push(it)
			m = append(m, it)
		}
		for len(m) > 0 {
			checkPop(t, &f, &m, "fill and drain")
		}
		if f.len() != 0 {
			t.Fatalf("drained heap holds %d items", f.len())
		}
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var m heapModel
		for op := 0; op < 300; op++ {
			if len(m) > 0 && rng.Intn(5) < 2 {
				checkPop(t, &f, &m, "interleaved")
				continue
			}
			it := randomFrontierItem(rng, m)
			f.push(it)
			m = append(m, it)
		}
		for len(m) > 0 {
			checkPop(t, &f, &m, "final drain")
		}
	}
}

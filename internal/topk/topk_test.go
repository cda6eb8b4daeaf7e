package topk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapBasics(t *testing.T) {
	h := NewHeap(3)
	if h.K() != 3 || h.Len() != 0 || h.Full() {
		t.Fatalf("fresh heap state wrong")
	}
	if h.Threshold() != 0 {
		t.Fatalf("Threshold of non-full heap = %g, want 0", h.Threshold())
	}
	h.Offer(1, 5)
	h.Offer(2, 3)
	if h.Threshold() != 0 {
		t.Fatalf("Threshold before full = %g, want 0", h.Threshold())
	}
	h.Offer(3, 7)
	if !h.Full() || h.Threshold() != 3 {
		t.Fatalf("after 3 offers: full=%v threshold=%g", h.Full(), h.Threshold())
	}
	// score 2 must be rejected
	if h.Offer(4, 2) {
		t.Fatal("Offer(4,2) accepted below threshold")
	}
	// score 4 evicts the 3
	if !h.Offer(5, 4) {
		t.Fatal("Offer(5,4) rejected")
	}
	want := []Result{{3, 7}, {1, 5}, {5, 4}}
	if got := h.Results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Results = %v, want %v", got, want)
	}
}

func TestHeapKClamped(t *testing.T) {
	h := NewHeap(0)
	if h.K() != 1 {
		t.Fatalf("K = %d, want clamp to 1", h.K())
	}
}

func TestHeapTieBreaking(t *testing.T) {
	h := NewHeap(2)
	h.Offer(9, 1)
	h.Offer(4, 1)
	h.Offer(7, 1)
	// All score 1: the two smallest ids should be retained.
	want := []Result{{4, 1}, {7, 1}}
	if got := h.Results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tie results = %v, want %v", got, want)
	}
	// Same-score same behaviour regardless of insertion order.
	h2 := NewHeap(2)
	h2.Offer(4, 1)
	h2.Offer(7, 1)
	h2.Offer(9, 1)
	if got := h2.Results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("order-dependent tie results = %v, want %v", got, want)
	}
}

func TestSortResults(t *testing.T) {
	rs := []Result{{3, 1}, {1, 1}, {2, 9}}
	SortResults(rs)
	want := []Result{{2, 9}, {1, 1}, {3, 1}}
	if !reflect.DeepEqual(rs, want) {
		t.Fatalf("SortResults = %v, want %v", rs, want)
	}
}

func TestTopKExact(t *testing.T) {
	scores := []float64{0, 5, 0, 2, 8, 1}
	got := TopKExact(scores, 3)
	want := []Result{{4, 8}, {1, 5}, {3, 2}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopKExact = %v, want %v", got, want)
	}
	// zero scores never appear even when k exceeds positives
	got = TopKExact(scores, 10)
	if len(got) != 4 {
		t.Fatalf("TopKExact len = %d, want 4", len(got))
	}
}

func TestAccess(t *testing.T) {
	a := Access{Sequential: 3, Random: 4, UsersExpanded: 2}
	b := Access{Sequential: 1, Random: 1, UsersExpanded: 1}
	a.Add(b)
	if a.Sequential != 4 || a.Random != 5 || a.UsersExpanded != 3 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.Total() != 9 {
		t.Fatalf("Total = %d, want 9", a.Total())
	}
}

// Property: heap retains exactly the k best of any input, matching a
// full sort.
func TestPropertyHeapMatchesSort(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(80)
		k := 1 + rng.Intn(12)
		type pair struct {
			item  int32
			score float64
		}
		var all []pair
		h := NewHeap(k)
		for i := 0; i < n; i++ {
			p := pair{item: int32(i), score: float64(rng.Intn(20))}
			all = append(all, p)
			h.Offer(p.item, p.score)
		}
		sort.Slice(all, func(i, j int) bool {
			if all[i].score != all[j].score {
				return all[i].score > all[j].score
			}
			return all[i].item < all[j].item
		})
		want := all
		if len(want) > k {
			want = want[:k]
		}
		got := h.Results()
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Item != want[i].item || got[i].Score != want[i].score {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: threshold is always the minimum of the held results once
// full, and Offer never lowers the result set quality.
func TestPropertyThresholdIsMin(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 1 + rng.Intn(8)
		h := NewHeap(k)
		for i := 0; i < 50; i++ {
			h.Offer(int32(i), rng.Float64()*10)
			if h.Full() {
				rs := h.Results()
				min := rs[len(rs)-1].Score
				if h.Threshold() != min {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

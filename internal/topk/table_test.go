package topk

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestTableSelectMatchesPromote: a table promoted after every raise and
// one raised without promotion and then Selected hold the top k that
// TopKExact finds in the dense score vector — the same results, Tau and
// membership — and both still do after raising resumes with Promote on
// the selected table, the hand-off a merge makes when it starts testing
// τ. Increments of 1 or 2 over a small universe make ties at the k-th
// score common, so the item-id tie-break decides membership.
func TestTableSelectMatchesPromote(t *testing.T) {
	const universe = 40
	a, b := NewTable(), NewTable()
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, k := range []int{1, 3, 10} {
			a.Reset(universe, k)
			b.Reset(universe, k)
			scores := make([]float64, universe)
			raise := func(promoteB bool) {
				item := int32(rng.Intn(universe))
				ia, _ := a.Ensure(item)
				ib, _ := b.Ensure(item)
				inc := float64(rng.Intn(3)) // 0: seen but not raised
				if inc == 0 {
					return
				}
				scores[item] += inc
				a.At(ia).Lower += inc
				a.Promote(ia)
				b.At(ib).Lower += inc
				if promoteB {
					b.Promote(ib)
				}
			}
			for range rng.Intn(80) {
				raise(false)
			}
			b.Select()
			where := fmt.Sprintf("seed %d, k %d", seed, k)
			checkTable(t, where+", promoted", a, scores, k)
			checkTable(t, where+", selected", b, scores, k)
			for range rng.Intn(40) {
				raise(true)
			}
			checkTable(t, where+", promoted on", a, scores, k)
			checkTable(t, where+", selected then promoted", b, scores, k)
		}
	}
}

// TestTableOfferMatchesSelect: a table fed each item's final score
// through Offer holds the top k that TopKExact finds — the same results,
// Tau and membership — and never more than k candidates, whether the
// items arrive in ascending id order, as the join's bitmap walk offers
// them, or in random order. Scores of 0 to 3 over a small universe make
// ties at the k-th score common, so the item-id tie-break decides
// membership, and zero scores are offered too. The table is Reset for a
// universe of 0: Offer must not touch the item index.
func TestTableOfferMatchesSelect(t *testing.T) {
	const universe = 40
	tb := NewTable()
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, k := range []int{1, 3, 10} {
			scores := make([]float64, universe)
			for i := range scores {
				if rng.Intn(2) == 0 {
					scores[i] = float64(rng.Intn(4))
				}
			}
			for _, order := range []string{"ascending", "random"} {
				items := make([]int32, universe)
				for i := range items {
					items[i] = int32(i)
				}
				if order == "random" {
					rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
				}
				tb.Reset(0, k)
				for _, item := range items {
					tb.Offer(item, scores[item])
					if tb.Len() > k {
						t.Fatalf("seed %d, k %d, %s: %d candidates held", seed, k, order, tb.Len())
					}
				}
				checkTable(t, fmt.Sprintf("seed %d, k %d, offered in %s order", seed, k, order), tb, scores, k)
			}
		}
	}
}

// checkTable compares a table's top k with TopKExact over scores.
func checkTable(t *testing.T, where string, tb *Table, scores []float64, k int) {
	t.Helper()
	want := TopKExact(scores, k)
	if got := tb.AppendTopResults(nil); !slices.Equal(got, want) {
		t.Fatalf("%s: results %v, want %v", where, got, want)
	}
	wantTau := 0.0
	if len(want) == k {
		wantTau = want[k-1].Score
	}
	if got := tb.Tau(); got != wantTau {
		t.Fatalf("%s: Tau %g, want %g", where, got, wantTau)
	}
	member := make(map[int32]bool, len(want))
	for _, r := range want {
		member[r.Item] = true
	}
	for _, c := range tb.All() {
		if c.InTopK() != member[c.Item] {
			t.Fatalf("%s: item %d (lower %g) InTopK %v, want %v", where, c.Item, c.Lower, c.InTopK(), member[c.Item])
		}
	}
}

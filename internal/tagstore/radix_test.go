package tagstore

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// tripleKey packs (user, tag, item) over the given id widths, the key
// merge sorts its triples by.
func tripleKey(tb, ib int) func(Triple) uint64 {
	return func(tr Triple) uint64 { return uint64(tr.User)<<(tb+ib) | uint64(tr.Tag)<<ib | uint64(tr.Item) }
}

// TestRadixPassesMatchesStableSort calls the radix kernel directly, at
// lengths on both sides of radixMin, and holds it to
// slices.SortStableFunc under the order its key packs: the kernel is
// stable, so the two agree element for element, equal keys included.
// The inputs are random, sorted, reverse-sorted, duplicate-heavy and
// of one user (so the top digit never varies and its pass is skipped);
// the widths a corpus-like (14, 13, 16) split, a narrow key of two
// 11-bit digits, and exactly 64 bits with ids at the int32 maximum.
func TestRadixPassesMatchesStableSort(t *testing.T) {
	widths := []struct {
		name       string
		ub, tb, ib int
	}{
		{"corpus", 14, 13, 16},
		{"narrow", 0, 5, 17},
		{"64-bit", 31, 2, 31},
	}
	orders := []struct {
		name string
		fill func(rng *rand.Rand, xs []Triple, ub, tb, ib int)
	}{
		{"random", func(rng *rand.Rand, xs []Triple, ub, tb, ib int) {
			for k := range xs {
				xs[k] = Triple{User: randID(rng, ub), Item: randID(rng, ib), Tag: randID(rng, tb), Count: int32(k)}
			}
		}},
		{"duplicates", func(rng *rand.Rand, xs []Triple, ub, tb, ib int) {
			for k := range xs {
				xs[k] = Triple{User: maxID(ub) >> rng.Intn(2), Item: maxID(ib) >> rng.Intn(2), Tag: randID(rng, min(tb, 1)), Count: int32(k)}
			}
		}},
		{"one-user", func(rng *rand.Rand, xs []Triple, ub, tb, ib int) {
			for k := range xs {
				xs[k] = Triple{User: maxID(ub), Item: randID(rng, ib), Tag: randID(rng, tb), Count: int32(k)}
			}
		}},
		{"sorted", func(rng *rand.Rand, xs []Triple, ub, tb, ib int) {
			for k := range xs {
				xs[k] = Triple{User: randID(rng, ub), Item: randID(rng, ib), Tag: randID(rng, tb), Count: int32(k)}
			}
			slices.SortStableFunc(xs, byUserTagItem)
		}},
		{"reversed", func(rng *rand.Rand, xs []Triple, ub, tb, ib int) {
			for k := range xs {
				xs[k] = Triple{User: randID(rng, ub), Item: randID(rng, ib), Tag: randID(rng, tb), Count: int32(k)}
			}
			slices.SortStableFunc(xs, func(a, b Triple) int { return byUserTagItem(b, a) })
		}},
	}
	for _, w := range widths {
		for _, o := range orders {
			for _, n := range []int{0, 1, 2, 3, 100, radixMin - 1, radixMin, 3*radixMin + 7} {
				t.Run(fmt.Sprintf("%s/%s/%d", w.name, o.name, n), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(n)))
					xs := make([]Triple, n)
					o.fill(rng, xs, w.ub, w.tb, w.ib)
					want := slices.Clone(xs)
					slices.SortStableFunc(want, byUserTagItem)
					scratch := radixPasses(xs, nil, w.ub+w.tb+w.ib, tripleKey(w.tb, w.ib))
					if !slices.Equal(xs, want) {
						t.Fatalf("radix order differs from the stable sort's")
					}
					if o.name == "sorted" && scratch != nil {
						t.Fatalf("sorted input grew %d elements of scratch", cap(scratch))
					}
				})
			}
		}
	}
}

// maxID is the largest id of the given width.
func maxID(width int) int32 { return int32(uint64(1)<<width - 1) }

func randID(rng *rand.Rand, width int) int32 { return int32(rng.Int63n(int64(maxID(width)) + 1)) }

// TestRadixSortFallsBackWithoutScratch: below radixMin, or over a key
// wider than 64 bits, radixSort is slices.SortFunc and allocates no
// scratch — a compaction's batch of 64 writes stays on pdqsort.
func TestRadixSortFallsBackWithoutScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		n, width int
	}{{64, 43}, {radixMin - 1, 43}, {2 * radixMin, 65}} {
		xs := make([]Triple, c.n)
		for k := range xs {
			xs[k] = Triple{User: int32(rng.Intn(100)), Item: int32(rng.Intn(100)), Tag: int32(rng.Intn(100)), Count: 1}
		}
		if scratch := radixSort(xs, nil, c.width, tripleKey(16, 16), byUserTagItem); scratch != nil {
			t.Errorf("n %d, width %d: grew scratch", c.n, c.width)
		}
		if !slices.IsSortedFunc(xs, byUserTagItem) {
			t.Errorf("n %d, width %d: not sorted", c.n, c.width)
		}
	}
}

// TestBuildMatchesMergeChain: a Build long enough for every one of its
// sorts to take the radix path gives the very store a chain of
// 64-triple Merges gives, whose sorts are all pdqsort. The second case
// spreads users up to the int32 maximum so that the triple key needs
// 65 bits and Build's first sort falls back too; its (item, tag) key
// and the global list's stay radix.
func TestBuildMatchesMergeChain(t *testing.T) {
	for _, c := range []struct {
		name                 string
		users, items, tags   int
		userStride, maxCount int
		tripleBits           int
	}{
		{"radix", 3000, 5000, 300, 1, 3, 34},
		{"65-bit", math.MaxInt32, 1 << 20, 1 << 14, math.MaxInt32 / 500, 1 << 20, 65},
	} {
		t.Run(c.name, func(t *testing.T) {
			if w := idBits(c.users) + idBits(c.items) + idBits(c.tags); w != c.tripleBits {
				t.Fatalf("the triple key is %d bits wide, want %d", w, c.tripleBits)
			}
			rng := rand.New(rand.NewSource(1))
			trs := make([]Triple, 2*radixMin+123)
			for k := range trs {
				if k > 0 && rng.Intn(5) == 0 { // a repeated triple, summed by both
					trs[k] = trs[rng.Intn(k)]
					continue
				}
				trs[k] = Triple{
					User:  int32(rng.Intn(c.users/c.userStride) * c.userStride),
					Item:  ItemID(rng.Intn(3000) * (c.items / 3000)),
					Tag:   TagID(rng.Intn(200) * (c.tags / 200)),
					Count: int32(1 + rng.Intn(c.maxCount)),
				}
			}
			chain, err := NewBuilder(0, 0, 0).Build()
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(trs); lo += 64 {
				if chain, err = chain.Merge(trs[lo:min(lo+64, len(trs))], c.users, c.items, c.tags); err != nil {
					t.Fatal(err)
				}
			}
			b := NewBuilder(c.users, c.items, c.tags)
			for _, tr := range trs {
				b.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
			}
			built, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(built, chain) {
				t.Fatal("Build differs from the chain of merges")
			}
		})
	}
}

// TestBuildKeepsTheRelation: Build sorts and sums the builder's own
// triples, so the builder still holds the relation afterwards — a
// second Build, or one after more Adds, gives what a fresh builder
// would — and a failed Build leaves it empty.
func TestBuildKeepsTheRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fresh := NewBuilder(50, 60, 7)
	b := NewBuilder(50, 60, 7)
	for k := 0; k < 2*radixMin; k++ {
		u, i, tg := int32(rng.Intn(50)), ItemID(rng.Intn(60)), TagID(rng.Intn(7))
		fresh.Add(u, i, tg)
		b.Add(u, i, tg)
	}
	first, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	again, err := b.Build()
	if err != nil || !reflect.DeepEqual(again, first) {
		t.Fatalf("a second Build differs from the first (err %v)", err)
	}
	fresh.AddCount(3, 4, 5, 6)
	b.AddCount(3, 4, 5, 6)
	want, _ := fresh.Build()
	if got, err := b.Build(); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("Build after more Adds differs from a fresh builder's (err %v)", err)
	}
	b.AddCount(3, 4, 5, math.MaxInt32)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build accepted a count past int32")
	}
	empty, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumTriples() != 0 {
		t.Fatalf("a failed Build left %d triples", empty.NumTriples())
	}
}

package proximity

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// frontierItem is one push of the expansion: user u reached with
// proximity p by a path of h hops. The float leads so the item packs
// into 16 bytes, which is what the band sort moves.
type frontierItem struct {
	p float64
	u graph.UserID
	h int32
}

// before reports whether a pops ahead of b: the higher proximity, then
// the lower id. No two items in a frontier are equal — a push needs a
// strictly better proximity for its user — so this is a strict total
// order and the pop sequence does not depend on the frontier's layout.
func before(a, b frontierItem) bool {
	if a.p != b.p {
		return a.p > b.p
	}
	return a.u < b.u
}

// compareItems is before as a three-way comparison, for slices.SortFunc.
func compareItems(a, b frontierItem) int {
	if a.p != b.p {
		if a.p > b.p {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.u, b.u)
}

const (
	// maxBands caps the band count. With MinSigma 0, or λ near 1, the
	// bands below the cap are merged into the last one, which then takes
	// its own pushes through the overflow heap.
	maxBands = 32
	// bandMargin widens each band's lower bound by a hair, so that a
	// candidate p·w·α, rounded twice, still lands below the bound
	// p·λ·bandMargin it is held to. Without it a rounded-up candidate
	// would land in the open band, which the overflow heap absorbs: the
	// order would stay exact and only that push would be slower.
	bandMargin = 1 + 0x1p-30
	// smallBand is the largest band sorted by comparison: below it the
	// radix sort's 256-bucket prefix sums cost more than they save.
	smallBand = 48
	// radixBytes is how many of a key's bytes, from the highest that
	// varies down, the band sort orders by radix before it looks for
	// runs: three leave about 21 bits of a band's proximities sorted.
	// sortBand's histogram pass is written out for three.
	radixBytes = 3
)

// bandFrontier is the expansion's priority queue: it pops items by
// before, given that no push exceeds the proximity of the last pop —
// what the expansion guarantees, since every factor of a candidate is
// at most 1.
//
// It splits proximity into bands. Band b holds p in (thr[b+1], thr[b]],
// with thr[0] the largest proximity (the self weight) and thr[b+1] a
// hair above thr[b]·λ, where λ = α·MaxWeight bounds what one hop
// multiplies by; the last band also holds everything below it. An item
// popped from band b pushes candidates of at most thr[b]·λ, so into
// band b+1 or later: a band is complete when it is opened, and is
// sorted once then (sortBand) and handed out in order. A push that does
// land in the open band — λ ≥ 1, or past the band cap — goes to the
// overflow heap, and pop takes the better of the heap's top and the
// sorted run's head. So the order is exact for every λ; the bands only
// decide how fast it is.
//
// At the serving parameters (α 0.6, largest weight 0.8, floor 0.05) λ
// is 0.48 and the horizon spans five bands. The buffers, the radix
// counts and the overflow heap are recycled with the iterator.
type bandFrontier struct {
	thr   [maxBands]float64
	nb    int // bands in use
	cur   int // the open band
	bands [maxBands][]frontierItem
	run   []frontierItem // the open band, sorted; run[head:] is left to pop
	head  int
	over  frontierHeap // pushes into the open band
	spare []frontierItem
	count [radixBytes][256]uint32 // radix histograms, one per sorted byte
}

// reset empties the frontier and lays out its bands for proximities up
// to top, hops that multiply by at most lambda, and no push below floor.
func (f *bandFrontier) reset(top, lambda, floor float64) {
	for b := range f.bands[:f.nb] {
		f.bands[b] = f.bands[b][:0]
	}
	f.over.items = f.over.items[:0]
	f.thr[0] = top
	f.nb = 1
	step := lambda * bandMargin
	for f.nb < maxBands {
		next := f.thr[f.nb-1] * step
		if !(next < f.thr[f.nb-1]) || next < floor {
			break // λ ≥ 1, or the band below would hold nothing pushable
		}
		f.thr[f.nb] = next
		f.nb++
	}
	f.cur = 0
	f.run = f.bands[0]
	f.head = 0
}

// push adds x, whose proximity must not exceed the last pop's. It
// files x under the first band whose bound is below it; only the open
// band's own pushes take the heap.
func (f *bandFrontier) push(x frontierItem) {
	b, nb := f.cur, f.nb
	for b+1 < nb && x.p <= f.thr[b+1] {
		b++
	}
	if b == f.cur {
		f.over.push(x)
		return
	}
	f.bands[b] = append(f.bands[b], x)
}

// ready opens bands until the open one has an item left; false when the
// frontier is empty.
func (f *bandFrontier) ready() bool {
	for f.head == len(f.run) && f.over.len() == 0 {
		if f.cur+1 >= f.nb {
			return false
		}
		f.bands[f.cur] = f.run[:0]
		f.cur++
		f.run, f.spare = sortBand(f.bands[f.cur], f.spare, &f.count)
		f.bands[f.cur] = f.run
		f.head = 0
	}
	return true
}

// fromHeap reports whether the next pop comes from the overflow heap.
// ready must have returned true.
func (f *bandFrontier) fromHeap() bool {
	return f.over.len() > 0 && (f.head == len(f.run) || before(f.over.peek(), f.run[f.head]))
}

// pop removes and returns the first item; ok is false when the frontier
// is empty.
func (f *bandFrontier) pop() (x frontierItem, ok bool) {
	if !f.ready() {
		return frontierItem{}, false
	}
	if f.fromHeap() {
		return f.over.pop(), true
	}
	x = f.run[f.head]
	f.head++
	return x, true
}

// peek returns the item pop would return, without removing it.
func (f *bandFrontier) peek() (x frontierItem, ok bool) {
	if !f.ready() {
		return frontierItem{}, false
	}
	if f.fromHeap() {
		return f.over.peek(), true
	}
	return f.run[f.head], true
}

// sortBand orders a by before and returns the sorted items — a itself or
// the spare buffer, grown to fit — together with the other buffer as the
// next spare.
//
// Larger bands take an LSD radix sort, one stable pass per byte, on the
// top radixBytes bytes of the proximity's bits that vary. The key is
// the bits complemented, so that ascending keys mean descending
// proximity (proximities are non-negative, so their bits order as the
// values do), and the bytes above the highest varying one — the sign
// and most of the exponent, within a band — are the same in every item.
// Items that agree on every sorted byte are then contiguous, and each
// such run is ordered by the rest of its key and then by id (sortRun).
// On continuous weights runs are rare and short; when every proximity
// ties, the whole band is one run. Either way the sort stays O(n log n)
// or better, with no quadratic fix-up.
func sortBand(a, spare []frontierItem, count *[radixBytes][256]uint32) (sorted, rest []frontierItem) {
	n := len(a)
	if n <= smallBand {
		slices.SortFunc(a, compareItems)
		return a, spare
	}
	if cap(spare) < n {
		spare = make([]frontierItem, n)
	}
	src, dst := a, spare[:n]
	shift := uint(64) // every key bit left to sortRun: one run
	if varying := varyingKeyBits(a); varying != 0 {
		shift = 8 * uint(max((63-bits.LeadingZeros64(varying))/8-radixBytes+1, 0))
		clear(count[:])
		for _, x := range a {
			k := sortKey(x) >> shift
			count[0][byte(k)]++
			count[1][byte(k>>8)]++
			count[2][byte(k>>16)]++
		}
		for d := range count {
			if s := shift + uint(8*d); byte(varying>>s) != 0 {
				offsets(&count[d])
				keyScatter(src, dst, &count[d], s)
				src, dst = dst, src
			}
		}
	}
	start, prev := 0, sortKey(src[0])>>shift
	for i := 1; i <= n; i++ {
		if i < n && sortKey(src[i])>>shift == prev {
			continue
		}
		if i-start > 1 {
			sortRun(src[start:i], dst, &count[0])
		}
		if i < n {
			start, prev = i, sortKey(src[i])>>shift
		}
	}
	return src, dst[:0]
}

// sortRun orders a by before, in place; scratch must hold len(a)
// items. Short runs are sorted by comparison. Longer ones — ties, in
// practice — take LSD radix passes over the bytes of the ids that vary,
// then over those of the keys, so equal proximities come out in id
// order in linear time.
func sortRun(a, scratch []frontierItem, count *[256]uint32) {
	if len(a) <= smallBand {
		slices.SortFunc(a, compareItems)
		return
	}
	src, dst := a, scratch[:len(a)]
	var idOr, idAnd uint32 = 0, ^uint32(0)
	for _, x := range a {
		idOr |= uint32(x.u)
		idAnd &= uint32(x.u)
	}
	for s := uint(0); s < 32; s += 8 {
		if byte((idOr^idAnd)>>s) != 0 {
			idPass(src, dst, count, s)
			src, dst = dst, src
		}
	}
	varying := varyingKeyBits(a)
	for s := uint(0); s < 64; s += 8 {
		if byte(varying>>s) != 0 {
			keyPass(src, dst, count, s)
			src, dst = dst, src
		}
	}
	if &src[0] != &a[0] {
		copy(a, src)
	}
}

// keyPass and idPass move src into dst ordered by one byte — of the
// key or of the id — the one shifted down by s, keeping the order of
// items with equal bytes: one pass of an LSD radix sort.
func keyPass(src, dst []frontierItem, count *[256]uint32, s uint) {
	clear(count[:])
	for _, x := range src {
		count[byte(sortKey(x)>>s)]++
	}
	offsets(count)
	keyScatter(src, dst, count, s)
}

func idPass(src, dst []frontierItem, count *[256]uint32, s uint) {
	clear(count[:])
	for _, x := range src {
		count[byte(uint32(x.u)>>s)]++
	}
	offsets(count)
	for _, x := range src {
		b := byte(uint32(x.u) >> s)
		dst[count[b]] = x
		count[b]++
	}
}

// keyScatter is keyPass after the histogram: count holds each byte's
// first index in dst.
func keyScatter(src, dst []frontierItem, count *[256]uint32, s uint) {
	for _, x := range src {
		b := byte(sortKey(x) >> s)
		dst[count[b]] = x
		count[b]++
	}
}

// offsets turns a histogram into each byte's first index.
func offsets(count *[256]uint32) {
	var sum uint32
	for i, m := range count {
		count[i] = sum
		sum += m
	}
}

// sortKey is x's proximity bits, complemented: ascending keys are
// descending proximities.
func sortKey(x frontierItem) uint64 { return ^math.Float64bits(x.p) }

// varyingKeyBits is the set of key bits that differ between some two
// items of a.
func varyingKeyBits(a []frontierItem) uint64 {
	var or, and uint64 = 0, ^uint64(0)
	for _, x := range a {
		k := sortKey(x)
		or |= k
		and &= k
	}
	return or ^ and
}

// frontierHeap is an allocation-light binary max-heap in before's
// order: the band frontier's overflow for pushes into its open band. A
// hand-rolled heap avoids the per-operation interface boxing of
// container/heap.
type frontierHeap struct {
	items []frontierItem
}

func (f *frontierHeap) len() int           { return len(f.items) }
func (f *frontierHeap) peek() frontierItem { return f.items[0] }

func (f *frontierHeap) push(it frontierItem) {
	f.items = append(f.items, it)
	i := len(f.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(f.items[i], f.items[parent]) {
			break
		}
		f.items[i], f.items[parent] = f.items[parent], f.items[i]
		i = parent
	}
}

// pop removes the top item bottom-up: the hole it leaves at the root
// moves down to a leaf along the better child — one comparison a level,
// where sifting the last item down takes two — and the last item then
// sifts up from that leaf. It came from the bottom, so it rarely climbs
// far. The better child is picked by adding the comparison's outcome
// (b2i) to the left child's index, not by a branch: which child wins is
// a coin flip no predictor learns, so a branch on it mispredicts about
// every other level. The c+1 < last test stays a branch; it fails only
// at the bottom level. before is a strict total order, so any valid
// heap pops the same sequence, and how the walk picks cannot change it.
func (f *frontierHeap) pop() frontierItem {
	items := f.items
	top := items[0]
	last := len(items) - 1
	x := items[last]
	items = items[:last]
	f.items = items
	if last == 0 {
		return top
	}
	i := 0
	for c := 1; c < last; c = 2*i + 1 {
		if c+1 < last {
			c += b2i(before(items[c+1], items[c]))
		}
		items[i] = items[c]
		i = c
	}
	for i > 0 {
		parent := (i - 1) / 2
		if !before(x, items[parent]) {
			break
		}
		items[i] = items[parent]
		i = parent
	}
	items[i] = x
	return top
}

// b2i is 1 for true and 0 for false. The compiler turns it into a flag
// set (SETcc), not a jump, so the choice it feeds costs no prediction.
func b2i(b bool) int {
	var n int
	if b {
		n = 1
	}
	return n
}

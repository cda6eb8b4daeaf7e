package tagstore

import (
	"math/bits"
	"slices"
)

const (
	// radixMin is the length below which radixSort leaves a slice to
	// slices.SortFunc: a compaction's batch of writes never pays for
	// the histograms or the scratch buffer.
	radixMin = 4096
	// radixDigit is the widest digit one pass sorts by: 32,768 buckets,
	// so three passes cover a key of 45 bits. Each pass moves every
	// element once, and on the serving corpus three 15-bit passes beat
	// four 11-bit ones (docs/perf.md, "The store builds in linear time").
	radixDigit = 15
	// radixBlock is how many digits a pass works out before it moves
	// the elements they belong to: key is a call, and the scatter runs
	// faster in a loop without one.
	radixBlock = 256
)

// idBits is the width of an id drawn from a universe of n.
func idBits(n int) int { return bits.Len(uint(max(n, 1) - 1)) }

// radixSort sorts xs by compare, which must order exactly as key does:
// key packs an element's sort order into its low width bits, so that
// compare(a, b) has the sign of key(a) - key(b). Short slices, and keys
// wider than 64 bits, go to slices.SortFunc, which allocates nothing;
// the rest go to radixPasses. The scratch buffer comes back for the
// next sort to reuse.
func radixSort[T any](xs, scratch []T, width int, key func(T) uint64, compare func(a, b T) int) []T {
	if len(xs) < radixMin || width > 64 {
		slices.SortFunc(xs, compare)
		return scratch
	}
	return radixPasses(xs, scratch, width, key)
}

// radixPasses is a stable LSD radix sort of xs by key's low width bits,
// for any length. It makes one pass per digit of at most radixDigit
// bits, the digits as even as the width allows; each pass is a stable
// scatter, a block at a time, from one of xs and scratch into the
// other, and scratch is grown to len(xs) if it is shorter. A first
// pass over xs counts every digit and notes whether the keys already
// ascend: then nothing moves and scratch is not grown. A digit every
// key shares is skipped. The result is copied back into xs if the last
// pass left it in scratch. The scratch buffer, grown or not, is
// returned.
func radixPasses[T any](xs, scratch []T, width int, key func(T) uint64) []T {
	passes := (width + radixDigit - 1) / radixDigit
	if len(xs) < 2 || passes == 0 {
		return scratch
	}
	digit := (width + passes - 1) / passes
	mask := uint64(1)<<digit - 1
	counts := make([]int, passes<<digit)
	sorted, prev := true, uint64(0)
	for _, x := range xs {
		k := key(x)
		sorted = sorted && k >= prev
		prev = k
		for p := range passes {
			counts[p<<digit|int(k>>(p*digit)&mask)]++
		}
	}
	if sorted {
		return scratch
	}
	if cap(scratch) < len(xs) {
		scratch = make([]T, len(xs))
	}
	src, dst := xs, scratch[:len(xs)]
	for p := range passes {
		shift := p * digit
		at := counts[p<<digit : (p+1)<<digit]
		if at[key(src[0])>>shift&mask] == len(src) {
			continue
		}
		sum := 0
		for d, c := range at {
			at[d] = sum
			sum += c
		}
		var digits [radixBlock]uint32
		for lo := 0; lo < len(src); lo += radixBlock {
			block := src[lo:min(lo+radixBlock, len(src))]
			for j, x := range block {
				digits[j] = uint32(key(x) >> shift & mask)
			}
			for j, x := range block {
				d := digits[j]
				dst[at[d]] = x
				at[d]++
			}
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	return scratch
}

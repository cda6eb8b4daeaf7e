package metrics

import (
	"math/bits"
	"sync"
	"time"
)

// Histogram is an HDR-style log-linear latency histogram: durations land
// in buckets whose width grows geometrically (8 sub-buckets per octave,
// ≈12% relative error), so memory stays constant no matter how many
// observations arrive — the property an open-loop load harness needs at
// high QPS, where collecting raw samples would allocate per request.
//
// A Histogram built with a non-zero window is *windowed*: it keeps two
// half-window epochs and rotates them as time passes, so Snapshot always
// describes roughly the last window-to-2×window of observations instead
// of the whole process lifetime. That is what a stats endpoint wants —
// "p99 right now", not "p99 since boot". With window 0 the histogram is
// cumulative and never forgets.
//
// All methods are safe for concurrent use.
type Histogram struct {
	mu     sync.Mutex
	window time.Duration
	now    func() time.Time // test clock; time.Now when nil

	epoch    time.Time // start of the current half-window
	cur      [histBuckets]int64
	prev     [histBuckets]int64
	curCount int64
	prvCount int64
	curMax   int64 // ns
	prvMax   int64 // ns
}

// Bucket layout: values are clamped to ≥8 ns so the leading-bit exponent
// is always ≥3, then split into (exponent, top-3-mantissa-bits). 64
// octaves × 8 sub-buckets covers 8 ns to ~580 years.
const (
	histSubBits = 3
	histSub     = 1 << histSubBits
	histBuckets = 64 * histSub
)

func histIndex(ns int64) int {
	if ns < histSub {
		ns = histSub
	}
	major := bits.Len64(uint64(ns)) - 1 // ≥ histSubBits after the clamp
	sub := int((uint64(ns) >> (uint(major) - histSubBits)) & (histSub - 1))
	return major*histSub + sub
}

// histUpper is the inclusive upper bound of a bucket — quantiles report
// it so a bucketed p99 is conservative (never below the true p99 by more
// than one bucket width).
func histUpper(idx int) int64 {
	major := idx / histSub
	sub := int64(idx % histSub)
	if major < histSubBits {
		return int64(idx)
	}
	shift := uint(major - histSubBits)
	return ((histSub + sub + 1) << shift) - 1
}

// NewHistogram returns a histogram that summarizes roughly the trailing
// window of observations; window 0 makes it cumulative.
func NewHistogram(window time.Duration) *Histogram {
	return &Histogram{window: window}
}

func (h *Histogram) clock() time.Time {
	if h.now != nil {
		return h.now()
	}
	return time.Now()
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	idx := histIndex(ns)
	h.mu.Lock()
	h.rotateLocked()
	h.cur[idx]++
	h.curCount++
	if ns > h.curMax {
		h.curMax = ns
	}
	h.mu.Unlock()
}

// rotateLocked ages out old epochs of a windowed histogram. Each epoch
// spans half the window; Snapshot merges the current and previous epoch,
// so reported data is between one and two half-windows old at the edges.
func (h *Histogram) rotateLocked() {
	if h.window <= 0 {
		return
	}
	now := h.clock()
	if h.epoch.IsZero() {
		h.epoch = now
		return
	}
	half := h.window / 2
	if half <= 0 {
		half = time.Nanosecond
	}
	elapsed := now.Sub(h.epoch)
	switch {
	case elapsed < half:
		return
	case elapsed < 2*half:
		h.prev, h.cur = h.cur, [histBuckets]int64{}
		h.prvCount, h.curCount = h.curCount, 0
		h.prvMax, h.curMax = h.curMax, 0
		h.epoch = h.epoch.Add(half)
	default: // idle long enough that both epochs expired
		h.prev = [histBuckets]int64{}
		h.cur = [histBuckets]int64{}
		h.prvCount, h.curCount = 0, 0
		h.prvMax, h.curMax = 0, 0
		h.epoch = now
	}
}

// HistogramSnapshot is a point-in-time quantile summary, shaped for JSON
// stats endpoints.
type HistogramSnapshot struct {
	Count int64
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
}

// Snapshot summarizes the histogram's current contents (for a windowed
// histogram: the trailing window).
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.rotateLocked()
	total := h.curCount + h.prvCount
	if total == 0 {
		return HistogramSnapshot{}
	}
	max := h.curMax
	if h.prvMax > max {
		max = h.prvMax
	}
	snap := HistogramSnapshot{
		Count: total,
		Max:   time.Duration(max),
	}
	// One ascending walk serves all quantiles.
	targets := [4]int64{
		quantileRank(total, 0.50),
		quantileRank(total, 0.95),
		quantileRank(total, 0.99),
		quantileRank(total, 0.999),
	}
	out := [4]*time.Duration{&snap.P50, &snap.P95, &snap.P99, &snap.P999}
	var seen int64
	next := 0
	for idx := 0; idx < histBuckets && next < len(targets); idx++ {
		seen += h.cur[idx] + h.prev[idx]
		for next < len(targets) && seen >= targets[next] {
			v := time.Duration(histUpper(idx))
			if v > time.Duration(max) {
				v = time.Duration(max)
			}
			*out[next] = v
			next++
		}
	}
	return snap
}

// quantileRank is the 1-based rank of the q-quantile, nearest rank on
// the lower side.
func quantileRank(total int64, q float64) int64 {
	r := int64(q*float64(total-1)) + 1
	if r < 1 {
		r = 1
	}
	if r > total {
		r = total
	}
	return r
}

package metrics

import (
	"testing"
	"time"
)

func TestHistogramQuantilesConservative(t *testing.T) {
	h := NewHistogram(0) // cumulative
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	// Bucketed quantiles report bucket upper bounds: never below the true
	// quantile, within ~12% above it.
	checks := []struct {
		name string
		got  time.Duration
		true time.Duration
	}{
		{"p50", s.P50, 500 * time.Millisecond},
		{"p95", s.P95, 950 * time.Millisecond},
		{"p99", s.P99, 990 * time.Millisecond},
		{"p999", s.P999, 999 * time.Millisecond},
	}
	for _, c := range checks {
		if c.got < c.true {
			t.Errorf("%s = %v below true quantile %v (must be conservative)", c.name, c.got, c.true)
		}
		if c.got > c.true+c.true/6 {
			t.Errorf("%s = %v more than ~17%% above true quantile %v", c.name, c.got, c.true)
		}
	}
	if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.P999 || s.P999 > s.Max {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	if s.Max != 1000*time.Millisecond {
		t.Fatalf("Max = %v, want exactly 1s (max is tracked exactly)", s.Max)
	}
}

func TestHistogramWindowRotation(t *testing.T) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	h := NewHistogram(10 * time.Second)
	h.now = func() time.Time { return now }

	h.Observe(time.Millisecond)
	if s := h.Snapshot(); s.Count != 1 {
		t.Fatalf("Count = %d, want 1", s.Count)
	}
	// Within one half-window: still visible.
	now = now.Add(4 * time.Second)
	h.Observe(2 * time.Millisecond)
	if s := h.Snapshot(); s.Count != 2 {
		t.Fatalf("Count after 4s = %d, want 2", s.Count)
	}
	// One half-window later the first epoch becomes "previous" — both
	// observations still counted.
	now = now.Add(3 * time.Second)
	if s := h.Snapshot(); s.Count != 2 {
		t.Fatalf("Count after rotation = %d, want 2 (prev epoch merged)", s.Count)
	}
	// Idle past two half-windows: everything expires.
	now = now.Add(30 * time.Second)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("Count after idle = %d, want 0", s.Count)
	}
}

// TestHistogramWindowTwoEpochBoundary pins the exact edges of epoch
// aging: an observation must survive through 2×half-window minus a
// nanosecond and vanish exactly at the two-epoch boundary, in both the
// stepped-rotation path (snapshots keep the clock moving) and the
// idle path (no calls between observation and the boundary, which
// takes rotateLocked's both-epochs-expired branch).
func TestHistogramWindowTwoEpochBoundary(t *testing.T) {
	const window = 10 * time.Second
	const half = window / 2
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

	// Stepped: rotate at exactly one half-window (cur → prev), stay
	// visible until just before the next boundary, drop exactly on it.
	now := t0
	h := NewHistogram(window)
	h.now = func() time.Time { return now }
	h.Observe(time.Millisecond)
	now = t0.Add(half)
	if s := h.Snapshot(); s.Count != 1 {
		t.Fatalf("Count at exactly one half-window = %d, want 1 (prev epoch merges)", s.Count)
	}
	now = t0.Add(2*half - time.Nanosecond)
	if s := h.Snapshot(); s.Count != 1 {
		t.Fatalf("Count just before two half-windows = %d, want 1", s.Count)
	}
	now = t0.Add(2 * half)
	if s := h.Snapshot(); s.Count != 0 {
		t.Fatalf("Count at exactly two half-windows = %d, want 0 (observation aged out)", s.Count)
	}

	// Idle: no intermediate snapshots (a snapshot would itself rotate
	// the epoch), so the single rotateLocked call at the boundary must
	// clear both epochs in one step.
	now = t0
	h2 := NewHistogram(window)
	h2.now = func() time.Time { return now }
	h2.Observe(time.Millisecond)
	now = t0.Add(2 * half)
	if s := h2.Snapshot(); s.Count != 0 {
		t.Fatalf("idle Count at the boundary = %d, want 0 (both epochs expired)", s.Count)
	}
	// The idle branch re-anchors the epoch at "now": a fresh observation
	// must then live a full half-window from that point.
	h2.Observe(2 * time.Millisecond)
	now = now.Add(half - time.Nanosecond)
	if s := h2.Snapshot(); s.Count != 1 {
		t.Fatalf("Count after re-anchor = %d, want 1 (epoch must restart at the idle boundary)", s.Count)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	h := NewHistogram(0)
	h.Observe(0)
	h.Observe(-5 * time.Millisecond)
	s := h.Snapshot()
	if s.Count != 2 {
		t.Fatalf("Count = %d, want 2", s.Count)
	}
	if s.Max != 0 {
		t.Fatalf("Max = %v, want 0 (negative clamped)", s.Max)
	}
}

func TestHistIndexUpperRoundTrip(t *testing.T) {
	for _, ns := range []int64{1, 8, 9, 100, 1023, 1024, 1025, 1 << 20, 1<<40 + 12345} {
		idx := histIndex(ns)
		upper := histUpper(idx)
		clamped := ns
		if clamped < histSub {
			clamped = histSub
		}
		if upper < clamped {
			t.Errorf("histUpper(histIndex(%d)) = %d < %d: bucket bound not conservative", ns, upper, clamped)
		}
		// Buckets below the 8ns clamp are unreachable; only reachable
		// neighbours need increasing bounds.
		if idx > histSubBits*histSub && histUpper(idx-1) >= upper {
			t.Errorf("bucket bounds not increasing at idx %d", idx)
		}
	}
}

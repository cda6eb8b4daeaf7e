package admission

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/search"
)

// fakeClock is a monotonically advancing test clock safe for concurrent
// readers.
type fakeClock struct{ ns atomic.Int64 }

func newFakeClock() *fakeClock {
	c := &fakeClock{}
	c.ns.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return c
}

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAIMDGrowsAdditivelyShrinksMultiplicatively(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{InitialWindow: 8, Clock: clk.now})

	// On-deadline success: +1/window.
	tk, err := c.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	clk.advance(10 * time.Millisecond)
	tk.Release(nil)
	if w := c.Snapshot().Window; w <= 8 || w > 8.2 {
		t.Fatalf("window after on-deadline success = %v, want 8 < w <= 8.125", w)
	}

	// Timeout: multiplicative shrink.
	tk, _ = c.Acquire(context.Background(), Read)
	clk.advance(10 * time.Millisecond)
	tk.Release(context.DeadlineExceeded)
	w1 := c.Snapshot().Window
	if w1 > 4.1 {
		t.Fatalf("window after timeout = %v, want ~4", w1)
	}

	// A second congestion signal inside RecoveryInterval must not shrink
	// again (one burst = one signal).
	tk, _ = c.Acquire(context.Background(), Read)
	clk.advance(10 * time.Millisecond)
	tk.Release(context.DeadlineExceeded)
	if w2 := c.Snapshot().Window; w2 != w1 {
		t.Fatalf("window shrank twice within RecoveryInterval: %v -> %v", w1, w2)
	}

	// After the interval passes, congestion bites again.
	clk.advance(200 * time.Millisecond)
	tk, _ = c.Acquire(context.Background(), Read)
	clk.advance(10 * time.Millisecond)
	tk.Release(context.DeadlineExceeded)
	if w3 := c.Snapshot().Window; w3 >= w1 {
		t.Fatalf("window did not shrink after RecoveryInterval: %v -> %v", w1, w3)
	}
}

func TestBudgetShedWhenQueueWaitExceedsDeadline(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{MinWindow: 1, MaxWindow: 1, InitialWindow: 1, QueueDeadline: 500 * time.Millisecond, Clock: clk.now})

	// Seed the latency estimate: one request that took a full second.
	tk, err := c.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	clk.advance(time.Second)
	tk.Release(nil) // late — also a congestion signal, window already min

	// Occupy the (single-slot) window…
	tk2, err := c.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	// …so the next request must queue; with ~1s estimated wait against a
	// 500ms budget it is shed immediately.
	_, err = c.Acquire(context.Background(), Read)
	if !errors.Is(err, search.ErrOverloaded) {
		t.Fatalf("queued-over-budget err = %v, want ErrOverloaded", err)
	}
	var oe *search.OverloadError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("shed error carries no retry-after hint: %v", err)
	}
	if s := c.Snapshot(); s.ShedBudget != 1 {
		t.Fatalf("ShedBudget = %d, want 1", s.ShedBudget)
	}
	tk2.Release(nil)
}

func TestQueueFullWriteDisplacesNewestRead(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{MinWindow: 1, MaxWindow: 1, InitialWindow: 1, QueueLimit: 1, Clock: clk.now})

	tk, err := c.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}

	// Queue one read (fills the queue).
	readErr := make(chan error, 1)
	go func() {
		_, err := c.Acquire(context.Background(), Read)
		readErr <- err
	}()
	waitFor(t, "read to queue", func() bool { return c.Snapshot().Queued == 1 })

	// A write arriving at the full queue displaces the read instead of
	// being shed itself.
	writeRes := make(chan error, 1)
	var writeTk Ticket
	go func() {
		tk, err := c.Acquire(context.Background(), Write)
		writeTk = tk
		writeRes <- err
	}()

	if err := <-readErr; !errors.Is(err, search.ErrOverloaded) {
		t.Fatalf("displaced read err = %v, want ErrOverloaded", err)
	}
	waitFor(t, "write to queue", func() bool { return c.Snapshot().Queued == 1 })

	// Releasing the in-flight slot admits the queued write.
	tk.Release(nil)
	if err := <-writeRes; err != nil {
		t.Fatalf("queued write err = %v, want admitted", err)
	}
	writeTk.Release(nil)

	if s := c.Snapshot(); s.ShedQueueFull != 1 {
		t.Fatalf("ShedQueueFull = %d, want 1 (the displaced read)", s.ShedQueueFull)
	}
}

func TestCtxCancelWhileQueuedReturnsCtxErr(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{MinWindow: 1, MaxWindow: 1, InitialWindow: 1, Clock: clk.now})

	tk, err := c.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	admittedBefore := c.Snapshot().Admitted

	ctx, cancel := context.WithCancel(context.Background())
	res := make(chan error, 1)
	go func() {
		_, err := c.Acquire(ctx, Read)
		res <- err
	}()
	waitFor(t, "request to queue", func() bool { return c.Snapshot().Queued == 1 })
	cancel()
	if err := <-res; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled-while-queued err = %v, want context.Canceled", err)
	}

	s := c.Snapshot()
	if s.Admitted != admittedBefore {
		t.Fatalf("canceled request was admitted (%d -> %d): engine work would have started", admittedBefore, s.Admitted)
	}
	if s.CanceledQueued != 1 {
		t.Fatalf("CanceledQueued = %d, want 1", s.CanceledQueued)
	}

	// The abandoned waiter must not wedge the queue: release the slot and
	// admit a fresh request.
	tk.Release(nil)
	tk2, err := c.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatalf("Acquire after canceled waiter: %v", err)
	}
	tk2.Release(nil)
}

func TestExpiredDeadlineShedAtPop(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{MinWindow: 1, MaxWindow: 1, InitialWindow: 1, QueueDeadline: 100 * time.Millisecond, Clock: clk.now})

	tk, err := c.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	res := make(chan error, 1)
	go func() {
		_, err := c.Acquire(context.Background(), Read)
		res <- err
	}()
	waitFor(t, "request to queue", func() bool { return c.Snapshot().Queued == 1 })

	// The slot frees only after the queued request's budget is gone.
	clk.advance(time.Second)
	tk.Release(nil)
	if err := <-res; !errors.Is(err, search.ErrOverloaded) {
		t.Fatalf("expired-at-pop err = %v, want ErrOverloaded", err)
	}
	if s := c.Snapshot(); s.ShedDeadline != 1 {
		t.Fatalf("ShedDeadline = %d, want 1", s.ShedDeadline)
	}
}

func TestBrownoutLadderAndHysteresis(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{
		MinWindow: 1, MaxWindow: 1, InitialWindow: 1,
		QueueLimit: 8, ExplainShedAt: 2,
		LevelHold: time.Second, Clock: clk.now,
	})

	tk, err := c.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if lvl := c.Level(); lvl != LevelNormal {
		t.Fatalf("idle level = %v, want LevelNormal", lvl)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Acquire(ctx, Read)
			results <- err
		}()
		want := i + 1
		waitFor(t, "queue to deepen", func() bool { return c.Snapshot().Queued == want })
		if lvl := c.Level(); want == 1 && lvl != LevelNormal {
			t.Fatalf("level at depth 1 = %v, want LevelNormal", lvl)
		}
	}
	if lvl := c.Level(); lvl != LevelShedExplain {
		t.Fatalf("level at depth 2 = %v, want LevelShedExplain", lvl)
	}

	// Apply: Explain stripped, everything else untouched; below the rung
	// nothing changes.
	req := search.Request{Seeker: "u", Mode: search.ModeAuto, Explain: true}
	c.Apply(LevelShedExplain, &req)
	if req.Explain || req.Mode != search.ModeAuto {
		t.Fatalf("Apply left req = %+v, want only explain stripped", req)
	}
	calm := search.Request{Seeker: "u", Explain: true}
	c.Apply(LevelNormal, &calm)
	if !calm.Explain {
		t.Fatal("Apply(LevelNormal) stripped Explain")
	}
	if s := c.Snapshot(); s.ExplainShed != 1 {
		t.Fatalf("ExplainShed = %d, want 1", s.ExplainShed)
	}

	// Drain the queue; the level stays sticky for LevelHold, then decays.
	cancel()
	for i := 0; i < 2; i++ {
		<-results
	}
	tk.Release(nil)
	if lvl := c.Level(); lvl != LevelShedExplain {
		t.Fatalf("level immediately after calm = %v, want sticky LevelShedExplain", lvl)
	}
	clk.advance(2 * time.Second)
	if lvl := c.Level(); lvl != LevelNormal {
		t.Fatalf("level after LevelHold of calm = %v, want LevelNormal", lvl)
	}
}

func TestFastPathAdmitsWithinWindow(t *testing.T) {
	clk := newFakeClock()
	c := New(Config{InitialWindow: 4, Clock: clk.now})
	var tks []Ticket
	for i := 0; i < 4; i++ {
		tk, err := c.Acquire(context.Background(), Read)
		if err != nil {
			t.Fatalf("Acquire %d: %v", i, err)
		}
		tks = append(tks, tk)
	}
	s := c.Snapshot()
	if s.InFlight != 4 || s.Queued != 0 || s.Admitted != 4 {
		t.Fatalf("snapshot = %+v, want 4 in flight, none queued", s)
	}
	for i := range tks {
		tks[i].Release(nil)
	}
	if s := c.Snapshot(); s.InFlight != 0 {
		t.Fatalf("InFlight after release = %d, want 0", s.InFlight)
	}
}

func TestReleaseIsIdempotentAndZeroTicketSafe(t *testing.T) {
	c := New(Config{})
	tk, err := c.Acquire(context.Background(), Read)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	tk.Release(nil)
	tk.Release(nil) // second release is a no-op
	var zero Ticket
	zero.Release(nil)
	if s := c.Snapshot(); s.InFlight != 0 {
		t.Fatalf("InFlight = %d after double release, want 0", s.InFlight)
	}
}

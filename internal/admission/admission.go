// Package admission implements per-replica adaptive overload control:
// an AIMD concurrency window, a bounded FIFO admission queue with
// per-request deadline budgets, and a brownout ladder that sheds
// optional work before shedding requests.
//
// The control loop is TCP-shaped (modeled on congestion-window fetchers
// like ndn-dpdk's fetch-algo): every completion that lands within its
// deadline grows the in-flight window additively (+1 per window's worth
// of acks), while every congestion signal — a completion past deadline,
// a context deadline exceeded during service, or a queued request whose
// wait would consume its budget — shrinks the window multiplicatively,
// at most once per recovery interval so a single burst of timeouts is
// one signal, not many.
//
// Requests that do not fit the window wait in a bounded FIFO queue.
// Each carries a deadline (its context's, tightened by the configured
// QueueDeadline cap); a request is shed with search.ErrOverloaded —
// retryable on the same replica, never failover — as soon as its
// estimated queue wait would consume its remaining budget. Writes are
// never shed before reads of the same deadline class: a write arriving
// at a full queue displaces the newest queued read instead of being
// rejected.
//
// Brownout is driven by measured queue state, not configuration guesses:
// as the queue deepens past a threshold, Explain work is shed (level 1)
// while answers stay untouched; past that, the queue sheds requests.
// See docs/overload.md.
package admission

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/search"
)

// Class is the deadline class of a request. Writes are privileged over
// reads of the same class when the queue must shed.
type Class int

const (
	// Read is a query (search, batch search).
	Read Class = iota
	// Write is a mutation (befriend, tag).
	Write
)

// Level is a rung of the brownout ladder.
type Level int

const (
	// LevelNormal serves requests exactly as asked.
	LevelNormal Level = iota
	// LevelShedExplain strips Explain from requests: under pressure the
	// observability garnish goes first, answers stay untouched.
	LevelShedExplain
)

// Config tunes a Controller. The zero value of every field means "use
// the default"; set ExplainShedAt negative to disable the rung.
type Config struct {
	// MinWindow / MaxWindow bound the AIMD concurrency window
	// (defaults 1 and 256). InitialWindow is the starting window
	// (default 8).
	MinWindow     int
	MaxWindow     int
	InitialWindow int
	// QueueLimit bounds the FIFO admission queue (default 128).
	QueueLimit int
	// QueueDeadline caps every request's queueing+service budget. A
	// request's effective deadline is min(ctx deadline, now+QueueDeadline),
	// so a client with a lax timeout still gets shed instead of queued
	// past the replica's SLO. Default 500ms.
	QueueDeadline time.Duration
	// DecreaseFactor is the multiplicative window shrink on congestion
	// (default 0.5); RecoveryInterval is the minimum gap between shrinks
	// (default 100ms) so one burst counts once.
	DecreaseFactor   float64
	RecoveryInterval time.Duration
	// ExplainShedAt is the queue depth (not a fraction) at which the
	// brownout rung engages (default QueueLimit/8, at least 1; negative
	// disables it). LevelHold is how long the engaged rung stays sticky
	// after the trigger condition clears (default 1s) — hysteresis, so
	// the ladder does not flap per request.
	ExplainShedAt int
	LevelHold     time.Duration
	// LatencyWindow sizes the rotating latency histogram backing the
	// wait estimator and /v1/stats quantiles (default 10s).
	LatencyWindow time.Duration
	// Clock overrides time.Now in tests.
	Clock func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MinWindow == 0 {
		c.MinWindow = 1
	}
	if c.MaxWindow == 0 {
		c.MaxWindow = 256
	}
	if c.MaxWindow < c.MinWindow {
		c.MaxWindow = c.MinWindow
	}
	if c.InitialWindow == 0 {
		c.InitialWindow = 8
	}
	if c.InitialWindow < c.MinWindow {
		c.InitialWindow = c.MinWindow
	}
	if c.InitialWindow > c.MaxWindow {
		c.InitialWindow = c.MaxWindow
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = 128
	}
	if c.QueueDeadline == 0 {
		c.QueueDeadline = 500 * time.Millisecond
	}
	if c.DecreaseFactor == 0 {
		c.DecreaseFactor = 0.5
	}
	if c.RecoveryInterval == 0 {
		c.RecoveryInterval = 100 * time.Millisecond
	}
	if c.ExplainShedAt == 0 {
		c.ExplainShedAt = max(1, c.QueueLimit/8)
	}
	if c.LevelHold == 0 {
		c.LevelHold = time.Second
	}
	if c.LatencyWindow == 0 {
		c.LatencyWindow = 10 * time.Second
	}
	return c
}

// waiter is one queued request. All fields are guarded by Controller.mu
// except ch, which is written exactly once (under mu) and read by the
// waiting goroutine.
type waiter struct {
	ch       chan error // admit (nil) or shed error; buffered
	class    Class
	deadline time.Time
	canceled bool // owner gave up (ctx done); skip on pop
	decided  bool // delivered or canceled; mutually exclusive with queue membership effects
}

// Controller is one replica's admission controller. Create with New;
// the zero value is not usable.
type Controller struct {
	cfg Config

	mu           sync.Mutex
	window       float64
	inflight     int
	queue        []*waiter
	ewmaLatency  float64 // seconds; 0 until the first completion
	lastDecrease time.Time
	level        Level
	levelSince   time.Time

	latency *metrics.Histogram

	admitted       atomic.Int64
	shedQueueFull  atomic.Int64
	shedBudget     atomic.Int64
	shedDeadline   atomic.Int64 // queue-deadline expiry discovered at pop
	canceledQueued atomic.Int64
	// canceledInflight counts requests whose client hung up after
	// admission, while the work was running (the in-flight half of the
	// 499 class; canceledQueued is the still-queued half).
	canceledInflight atomic.Int64
	okOnDeadline     atomic.Int64
	lateDone         atomic.Int64
	timeouts         atomic.Int64
	errored          atomic.Int64
	explainShed      atomic.Int64
}

// New builds a controller from cfg (zero fields take defaults).
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:     cfg,
		window:  float64(cfg.InitialWindow),
		latency: metrics.NewHistogram(cfg.LatencyWindow),
	}
	return c
}

func (c *Controller) clock() time.Time {
	if c.cfg.Clock != nil {
		return c.cfg.Clock()
	}
	return time.Now()
}

// Ticket is one admitted request's permit. Release it exactly once with
// the outcome error (nil on success); the zero Ticket is a no-op.
type Ticket struct {
	c        *Controller
	start    time.Time
	deadline time.Time
	active   bool
	// Level is the brownout level at admission time; callers apply the
	// ladder with Apply.
	Level Level
}

// Acquire admits one request, queueing it when the AIMD window is full.
// It returns ctx.Err() if ctx expires while queued (the request never
// started any engine work), or a search.ErrOverloaded-class error when
// the request is shed: the queue is full, or the estimated queue wait
// would consume the request's deadline budget.
func (c *Controller) Acquire(ctx context.Context, class Class) (Ticket, error) {
	if err := ctx.Err(); err != nil {
		return Ticket{}, err
	}
	now := c.clock()
	deadline := now.Add(c.cfg.QueueDeadline)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}

	c.mu.Lock()
	lvl := c.levelLocked(now)
	if c.inflight < c.windowLocked() && len(c.queue) == 0 {
		c.inflight++
		c.mu.Unlock()
		c.admitted.Add(1)
		return Ticket{c: c, start: now, deadline: deadline, active: true, Level: lvl}, nil
	}

	// The window is full: this request must queue. Shed it now if its
	// expected wait already exceeds its budget — better a cheap early
	// 429 than a slot wasted on an answer nobody is waiting for.
	pos := len(c.queue)
	if wait := c.estWaitLocked(pos); now.Add(wait).After(deadline) {
		c.congestionLocked(now)
		retry := c.retryAfterLocked()
		c.mu.Unlock()
		c.shedBudget.Add(1)
		return Ticket{}, search.Overloadedf(retry, "queue wait %v exceeds request budget", wait.Round(time.Millisecond))
	}
	if pos >= c.cfg.QueueLimit {
		// Queue full. Writes are never shed before reads of the same
		// deadline class: a write displaces the newest queued read.
		var victim *waiter
		if class == Write {
			victim = c.popNewestLocked(Read)
		}
		if victim == nil {
			c.congestionLocked(now)
			retry := c.retryAfterLocked()
			c.mu.Unlock()
			c.shedQueueFull.Add(1)
			return Ticket{}, search.Overloadedf(retry, "admission queue full (%d)", c.cfg.QueueLimit)
		}
		retry := c.retryAfterLocked()
		victim.decided = true
		victim.ch <- search.Overloadedf(retry, "admission queue full (%d), displaced by write", c.cfg.QueueLimit)
		c.shedQueueFull.Add(1)
	}
	w := &waiter{ch: make(chan error, 1), class: class, deadline: deadline}
	c.queue = append(c.queue, w)
	if lv := c.levelLocked(now); lv > lvl {
		lvl = lv
	}
	c.mu.Unlock()

	select {
	case err := <-w.ch:
		if err != nil {
			return Ticket{}, err
		}
		c.admitted.Add(1)
		return Ticket{c: c, start: c.clock(), deadline: deadline, active: true, Level: lvl}, nil
	case <-ctx.Done():
		c.mu.Lock()
		if w.decided {
			// Lost the race: the pop already delivered a verdict. Honour
			// it so an admitted slot is not leaked.
			c.mu.Unlock()
			if err := <-w.ch; err == nil {
				c.admitted.Add(1)
				t := Ticket{c: c, start: c.clock(), deadline: deadline, active: true, Level: lvl}
				t.Release(ctx.Err())
			}
			return Ticket{}, ctx.Err()
		}
		w.canceled = true
		w.decided = true
		c.mu.Unlock()
		c.canceledQueued.Add(1)
		return Ticket{}, ctx.Err()
	}
}

// Release completes a ticket: err is the outcome the request finished
// with (nil for success). It feeds the AIMD loop — on-deadline success
// grows the window, deadline overrun shrinks it — and wakes queued
// waiters that now fit.
func (t *Ticket) Release(err error) {
	if !t.active || t.c == nil {
		return
	}
	t.active = false
	c := t.c
	now := c.clock()
	lat := now.Sub(t.start)
	c.latency.Observe(lat)

	onDeadline := now.Before(t.deadline) || now.Equal(t.deadline)
	congested := false
	switch {
	case err == nil && onDeadline:
		c.okOnDeadline.Add(1)
	case err == nil:
		// Finished, but past its budget: the caller has likely given up.
		// That is a congestion signal exactly like a timeout.
		c.lateDone.Add(1)
		congested = true
	case errors.Is(err, context.DeadlineExceeded):
		c.timeouts.Add(1)
		congested = true
	case errors.Is(err, context.Canceled):
		// The client hung up mid-execution (499 in flight). Neutral for
		// the AIMD loop — it says nothing about replica load — but
		// counted in its own class so cancellations are not invisible.
		c.canceledInflight.Add(1)
	default:
		// Engine errors are neutral: they say nothing about replica load.
		c.errored.Add(1)
	}

	c.mu.Lock()
	if lats := lat.Seconds(); c.ewmaLatency == 0 {
		c.ewmaLatency = lats
	} else {
		c.ewmaLatency = 0.8*c.ewmaLatency + 0.2*lats
	}
	if err == nil && onDeadline {
		c.window += 1 / c.window
		if maxW := float64(c.cfg.MaxWindow); c.window > maxW {
			c.window = maxW
		}
	} else if congested {
		c.congestionLocked(now)
	}
	c.inflight--
	c.popWaitersLocked(now)
	c.mu.Unlock()
}

// windowLocked is the integer window (floor, at least MinWindow).
func (c *Controller) windowLocked() int {
	w := int(c.window)
	if w < c.cfg.MinWindow {
		w = c.cfg.MinWindow
	}
	return w
}

// estWaitLocked estimates the queue wait at position pos: pos+1 requests
// must drain ahead, the window drains one per ewmaLatency/window.
func (c *Controller) estWaitLocked(pos int) time.Duration {
	if c.ewmaLatency == 0 {
		return 0 // no signal yet: admit optimistically
	}
	perSlot := c.ewmaLatency / float64(c.windowLocked())
	return time.Duration(float64(pos+1) * perSlot * float64(time.Second))
}

// retryAfterLocked suggests a backoff: the time for the current queue to
// drain, at least 50ms.
func (c *Controller) retryAfterLocked() time.Duration {
	d := c.estWaitLocked(len(c.queue))
	if d < 50*time.Millisecond {
		d = 50 * time.Millisecond
	}
	return d
}

// congestionLocked applies the multiplicative decrease, rate-limited to
// once per recovery interval.
func (c *Controller) congestionLocked(now time.Time) {
	if !c.lastDecrease.IsZero() && now.Sub(c.lastDecrease) < c.cfg.RecoveryInterval {
		return
	}
	c.lastDecrease = now
	c.window *= c.cfg.DecreaseFactor
	if minW := float64(c.cfg.MinWindow); c.window < minW {
		c.window = minW
	}
}

// popWaitersLocked admits queued requests that now fit the window,
// shedding any whose deadline passed while queued.
func (c *Controller) popWaitersLocked(now time.Time) {
	for len(c.queue) > 0 && c.inflight < c.windowLocked() {
		w := c.queue[0]
		c.queue = c.queue[1:]
		if w.decided {
			continue
		}
		if now.After(w.deadline) {
			w.decided = true
			w.ch <- search.Overloadedf(c.retryAfterLocked(), "queue deadline expired while waiting")
			c.shedDeadline.Add(1)
			c.congestionLocked(now)
			continue
		}
		w.decided = true
		c.inflight++
		w.ch <- nil
	}
}

// popNewestLocked removes and returns the newest queued waiter of the
// given class (nil if none).
func (c *Controller) popNewestLocked(class Class) *waiter {
	for i := len(c.queue) - 1; i >= 0; i-- {
		w := c.queue[i]
		if w.decided || w.class != class {
			continue
		}
		c.queue = append(c.queue[:i], c.queue[i+1:]...)
		return w
	}
	return nil
}

// levelLocked computes the brownout level with sticky-down hysteresis:
// rungs engage instantly when the queue deepens and release only after
// LevelHold of calm.
func (c *Controller) levelLocked(now time.Time) Level {
	depth := len(c.queue)
	inst := LevelNormal
	if c.cfg.ExplainShedAt >= 0 && depth >= c.cfg.ExplainShedAt {
		inst = LevelShedExplain
	}
	switch {
	case inst >= c.level:
		c.level = inst
		c.levelSince = now
	case now.Sub(c.levelSince) > c.cfg.LevelHold:
		c.level = inst
		c.levelSince = now
	}
	return c.level
}

// Level reports the current brownout level.
func (c *Controller) Level() Level {
	now := c.clock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.levelLocked(now)
}

// Apply applies the brownout ladder for level lvl to req in place: at
// LevelShedExplain the Explain flag is stripped (counted on the
// controller).
func (c *Controller) Apply(lvl Level, req *search.Request) {
	if lvl >= LevelShedExplain && req.Explain {
		req.Explain = false
		c.explainShed.Add(1)
	}
}

// Snapshot is a point-in-time view of the controller for /v1/stats.
type Snapshot struct {
	Window   float64
	InFlight int
	Queued   int
	Level    int

	Admitted      int64
	ShedQueueFull int64
	ShedBudget    int64
	ShedDeadline  int64
	// CanceledQueued / CanceledInFlight split the 499 client-cancel
	// class: hung up while still queued vs. after admission with the
	// work already running.
	CanceledQueued   int64
	CanceledInFlight int64
	OKOnDeadline     int64
	LateDone         int64
	Timeouts         int64
	Errors           int64
	ExplainShed      int64

	Latency metrics.HistogramSnapshot
}

// Shed is the total of all shed classes.
func (s Snapshot) Shed() int64 { return s.ShedQueueFull + s.ShedBudget + s.ShedDeadline }

// Snapshot reports the controller's current state.
func (c *Controller) Snapshot() Snapshot {
	now := c.clock()
	c.mu.Lock()
	s := Snapshot{
		Window:   c.window,
		InFlight: c.inflight,
		Queued:   len(c.queue),
		Level:    int(c.levelLocked(now)),
	}
	c.mu.Unlock()
	s.Admitted = c.admitted.Load()
	s.ShedQueueFull = c.shedQueueFull.Load()
	s.ShedBudget = c.shedBudget.Load()
	s.ShedDeadline = c.shedDeadline.Load()
	s.CanceledQueued = c.canceledQueued.Load()
	s.CanceledInFlight = c.canceledInflight.Load()
	s.OKOnDeadline = c.okOnDeadline.Load()
	s.LateDone = c.lateDone.Load()
	s.Timeouts = c.timeouts.Load()
	s.Errors = c.errored.Load()
	s.ExplainShed = c.explainShed.Load()
	s.Latency = c.latency.Snapshot()
	return s
}

package fleet

import (
	"context"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Broadcaster defaults, substituted for zero config fields.
const (
	DefaultBroadcastWindow  = 25 * time.Millisecond
	DefaultMaxBatchEdges    = 512
	DefaultBroadcastTimeout = 5 * time.Second
)

// BroadcasterConfig tunes the invalidation broadcaster.
type BroadcasterConfig struct {
	// Window is the coalescing window: dirty edges noted within it ride
	// one batch, so a burst of writes costs one fleet-wide POST instead
	// of one per write (0 = DefaultBroadcastWindow).
	Window time.Duration
	// MaxBatchEdges flushes a batch early once this many distinct dirty
	// edges accumulated, bounding both the wire size and how much cached
	// state one broadcast drops at once (0 = DefaultMaxBatchEdges).
	MaxBatchEdges int
	// Timeout bounds one replica's acknowledgement of one batch
	// (0 = DefaultBroadcastTimeout).
	Timeout time.Duration
}

// Broadcaster batches the write path's dirty friendship edges and fans
// them out to every replica's /v2/invalidate endpoint. A broadcast does
// two jobs on each replica: it folds forwarded-but-pending writes into
// the queryable snapshot (the fleet's compaction heartbeat) and drops
// the cached seeker horizons the batch's edges could affect — the
// edge-scoped rule, applied across processes, so a confined write burst
// never global-flushes the fleet's caches.
//
// A replica that fails to acknowledge a batch is marked missed; its
// next successful broadcast is escalated to a global invalidation, so
// edge-level bookkeeping never has to replay history to stay sound —
// unless a rejoin settles the debt first: a replica ejected while the
// fleet kept writing streams the records it missed from the Frontend's
// replication log before the pool readmits it, and the catch-up's
// closing invalidation — sent records or not, so a write-quiet fleet
// settles too — is scoped to exactly those records' edges and withdraws
// the escalation (ClearMissedIf); see docs/fleet.md.
type Broadcaster struct {
	cfg BroadcasterConfig

	// flushMu serializes whole flushes, so a synchronous Flush returns
	// only after any in-flight fan-out completed too.
	flushMu sync.Mutex

	mu      sync.Mutex
	clients []*Client // slot-indexed, append-only (AddClient); aligned with the pool's slots
	pending [][2]string
	seen    map[[2]string]struct{}
	dirty   bool      // a write (possibly tag-only) awaits a broadcast
	oldest  time.Time // arrival of the oldest unbroadcast note
	missed  []bool    // per replica: escalate next batch to global
	// disabled marks retired slots: never fanned out to again, and a
	// fan-out already in flight when the slot retires may still send —
	// harmless, the retiree just drops cache state it no longer serves.
	disabled []bool
	// missedSeq counts MarkMissed calls per replica; clears are guarded
	// on it so a repair can never erase a miss recorded after the repair
	// started (check-act race on the flag).
	missedSeq []uint64
	kick      chan struct{}

	counters metrics.BroadcastCounters
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once
}

// NewBroadcaster builds a broadcaster over the replica clients and
// starts its flush loop. Close drains and stops it.
func NewBroadcaster(clients []*Client, cfg BroadcasterConfig) *Broadcaster {
	if cfg.Window <= 0 {
		cfg.Window = DefaultBroadcastWindow
	}
	if cfg.MaxBatchEdges <= 0 {
		cfg.MaxBatchEdges = DefaultMaxBatchEdges
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultBroadcastTimeout
	}
	b := &Broadcaster{
		clients:   clients,
		cfg:       cfg,
		seen:      make(map[[2]string]struct{}),
		missed:    make([]bool, len(clients)),
		missedSeq: make([]uint64, len(clients)),
		disabled:  make([]bool, len(clients)),
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go b.loop()
	return b
}

// NoteEdge records one dirty friendship edge (order-insensitive,
// deduplicated within the batch) for the next broadcast.
func (b *Broadcaster) NoteEdge(a, c string) {
	key := [2]string{a, c}
	if c < a {
		key = [2]string{c, a}
	}
	b.mu.Lock()
	if _, ok := b.seen[key]; !ok {
		b.seen[key] = struct{}{}
		b.pending = append(b.pending, key)
	}
	b.noteLocked()
	full := len(b.pending) >= b.cfg.MaxBatchEdges
	b.mu.Unlock()
	if full {
		b.wake()
	}
}

// NoteWrite records a write that dirtied no friendship edge (a tag).
// Tags never invalidate cached horizons, but replicas still need the
// broadcast's compaction heartbeat for the write to become queryable.
func (b *Broadcaster) NoteWrite() {
	b.mu.Lock()
	b.noteLocked()
	b.mu.Unlock()
}

func (b *Broadcaster) noteLocked() {
	if !b.dirty {
		b.dirty = true
		b.oldest = time.Now()
		b.wake()
	}
}

// AddClient registers a new replica slot for invalidation fan-out and
// returns its index. The caller (the resize orchestrator) keeps the
// broadcaster's slots aligned with the pool's: Pool.Admit and AddClient
// are invoked together, in slot order.
func (b *Broadcaster) AddClient(c *Client) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.clients = append(b.clients, c)
	b.missed = append(b.missed, false)
	b.missedSeq = append(b.missedSeq, 0)
	b.disabled = append(b.disabled, false)
	return len(b.clients) - 1
}

// Disable permanently removes a retired slot from fan-out. Its missed
// flag is dropped too: an escalation owed to a replica that will never
// serve again is not owed to anyone.
func (b *Broadcaster) Disable(replica int) {
	b.mu.Lock()
	if replica >= 0 && replica < len(b.disabled) {
		b.disabled[replica] = true
		b.missed[replica] = false
	}
	b.mu.Unlock()
}

// MarkMissed flags a replica as having missed broadcast traffic (the
// pool's ejection hook): its next acknowledged broadcast is escalated
// to a global invalidation.
func (b *Broadcaster) MarkMissed(replica int) {
	b.mu.Lock()
	if replica >= 0 && replica < len(b.missed) {
		b.missed[replica] = true
		b.missedSeq[replica]++
	}
	b.mu.Unlock()
}

// MissedSeq returns the replica's miss sequence number: capture it
// before starting a repair, and pass it to ClearMissedIf afterwards so
// only misses the repair actually covered are withdrawn.
func (b *Broadcaster) MissedSeq(replica int) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if replica < 0 || replica >= len(b.missedSeq) {
		return 0
	}
	return b.missedSeq[replica]
}

// ClearMissedIf withdraws a replica's missed flag after an out-of-band
// repair covered it — the replication log catch-up ends with an
// invalidation scoped to exactly the records the replica missed, so the
// escalated global is no longer owed. seq must be the MissedSeq
// captured before the repair's invalidation: a miss recorded since then
// is NOT covered and keeps the flag.
func (b *Broadcaster) ClearMissedIf(replica int, seq uint64) {
	b.mu.Lock()
	if replica >= 0 && replica < len(b.missed) && b.missedSeq[replica] == seq {
		b.missed[replica] = false
	}
	b.mu.Unlock()
}

func (b *Broadcaster) wake() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

// loop coalesces: on the first note of a batch it waits out the window
// (or an early-flush wake) and sends.
func (b *Broadcaster) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			return
		case <-b.kick:
		}
		// Something is pending: give the window a chance to coalesce
		// more, unless the batch is already full.
		b.mu.Lock()
		full := len(b.pending) >= b.cfg.MaxBatchEdges
		b.mu.Unlock()
		if !full {
			select {
			case <-b.stop:
				return
			case <-time.After(b.cfg.Window):
			}
		}
		b.flushOnce(context.Background())
	}
}

// flushOnce takes the pending batch and fans it out; concurrent notes
// start the next batch.
func (b *Broadcaster) flushOnce(ctx context.Context) {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	if !b.dirty {
		b.mu.Unlock()
		return
	}
	edges := b.pending
	b.pending = nil
	b.seen = make(map[[2]string]struct{})
	b.dirty = false
	// Snapshot the membership under the lock: AddClient may grow the
	// slices concurrently, and a slot admitted after the batch was taken
	// rides the NEXT batch.
	clients := append([]*Client(nil), b.clients...)
	skip := append([]bool(nil), b.disabled...)
	global := make([]bool, len(clients))
	copy(global, b.missed)
	seqs := append([]uint64(nil), b.missedSeq...)
	b.mu.Unlock()

	b.counters.Batch(len(edges))
	var wg sync.WaitGroup
	for i, c := range clients {
		if skip[i] {
			continue
		}
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, b.cfg.Timeout)
			defer cancel()
			if global[i] {
				b.counters.Escalation()
			}
			_, err := c.Invalidate(sctx, edges, global[i])
			b.mu.Lock()
			if err != nil {
				b.missed[i] = true
				b.missedSeq[i]++
				b.mu.Unlock()
				b.counters.Failure()
				return
			}
			// Withdraw the escalation debt only if no NEW miss was
			// recorded since this batch was taken — a global delivered
			// now does not cover a batch missed meanwhile.
			if global[i] && b.missedSeq[i] == seqs[i] {
				b.missed[i] = false
			}
			b.mu.Unlock()
		}(i, c)
	}
	wg.Wait()
}

// Flush synchronously broadcasts everything pending. Callers that need
// read-your-writes across the fleet (tests, admin tooling) quiesce with
// it; the serving path never waits on it.
func (b *Broadcaster) Flush(ctx context.Context) {
	b.flushOnce(ctx)
}

// Lag returns how long the oldest unbroadcast write has been waiting
// (0 when nothing is pending) — the freshness bound on replica
// snapshots.
func (b *Broadcaster) Lag() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.dirty {
		return 0
	}
	return time.Since(b.oldest)
}

// Close flushes pending work and stops the loop.
func (b *Broadcaster) Close() {
	b.once.Do(func() {
		close(b.stop)
		<-b.done
		b.flushOnce(context.Background())
	})
}

// BroadcastStats is the broadcaster's observable state.
type BroadcastStats struct {
	Counters metrics.BroadcastSnapshot
	// PendingEdges is the current unbroadcast distinct-edge count.
	PendingEdges int
	// LagMS is how long the oldest unbroadcast write has waited.
	LagMS int64
}

// Stats returns current counters.
func (b *Broadcaster) Stats() BroadcastStats {
	b.mu.Lock()
	pending := len(b.pending)
	var lag time.Duration
	if b.dirty {
		lag = time.Since(b.oldest)
	}
	b.mu.Unlock()
	return BroadcastStats{
		Counters:     b.counters.Snapshot(),
		PendingEdges: pending,
		LagMS:        lag.Milliseconds(),
	}
}

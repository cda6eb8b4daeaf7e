package fleet

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/social"
)

// Broadcaster defaults, substituted for zero config fields.
const (
	DefaultBroadcastWindow = 25 * time.Millisecond
	// DefaultMaxBatchEdges is the replicas' own edge-scope limit: a
	// heartbeat goes out early just before a replica's pending friendships
	// would overflow into a global invalidation at its next compaction.
	DefaultMaxBatchEdges = social.DefaultEdgeScopeLimit
)

// beatTimeout bounds one replica's share of one heartbeat: its apply
// pages.
const beatTimeout = 5 * time.Second

// BroadcasterConfig tunes the compaction heartbeat.
type BroadcasterConfig struct {
	// Window is the coalescing window: writes noted within it ride one
	// heartbeat — one apply page per replica for up to
	// server.MaxReplogPageRecords records (0 = DefaultBroadcastWindow).
	Window time.Duration
	// MaxBatchEdges sends the heartbeat early once this many Befriends
	// were noted since the last one, bounding how much cached state one
	// replica compaction drops at once (0 = DefaultMaxBatchEdges).
	MaxBatchEdges int
}

// Broadcaster is the fleet's compaction heartbeat, which carries the
// log's records: a dirty flag, a coalescing window, and a fan-out that
// streams each replica the records past its cursor (Frontend.stream) in
// POST /v2/apply pages, the last of which folds them into the queryable
// snapshot. It carries no edges: a replica's compaction
// drops the cached horizons of exactly the Befriends it noted when it
// applied them, and every record reaches every replica through the
// same stream, so a replica only ever compacts edges it noted itself.
// A live replica that loses a page is ejected and repaired by catch-up;
// see docs/fleet.md.
type Broadcaster struct {
	cfg BroadcasterConfig

	// flushMu serializes whole flushes, so a synchronous Flush returns
	// only after any in-flight fan-out completed too.
	flushMu sync.Mutex

	mu        sync.Mutex
	front     *Frontend // whose pool members a heartbeat streams (NewFrontend)
	dirty     bool      // an acked write is not yet folded in on every target
	oldest    time.Time // arrival of the oldest such write
	befriends int       // Befriends noted since the last heartbeat was taken
	kick      chan struct{}

	counters metrics.BroadcastCounters
	stop     chan struct{}
	done     chan struct{}
	once     sync.Once
}

// NewBroadcaster starts a heartbeat loop; Close drains and stops it. The
// replica list is not kept: the front-end the broadcaster is handed to
// (NewFrontend) supplies the targets and the records.
func NewBroadcaster(_ []*Client, cfg BroadcasterConfig) *Broadcaster {
	if cfg.Window <= 0 {
		cfg.Window = DefaultBroadcastWindow
	}
	if cfg.MaxBatchEdges <= 0 {
		cfg.MaxBatchEdges = DefaultMaxBatchEdges
	}
	b := &Broadcaster{
		cfg:  cfg,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// NoteWrite records one acknowledged write awaiting a heartbeat. Tags
// and Befriends alike need it to become queryable; Befriends also count
// toward the early flush.
func (b *Broadcaster) NoteWrite(befriend bool) {
	b.mu.Lock()
	first := !b.dirty
	if first {
		b.dirty = true
		b.oldest = time.Now()
	}
	if befriend {
		b.befriends++
	}
	filled := befriend && b.befriends == b.cfg.MaxBatchEdges
	b.mu.Unlock()
	if first || filled {
		b.wake()
	}
}

func (b *Broadcaster) wake() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

func (b *Broadcaster) full() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.befriends >= b.cfg.MaxBatchEdges
}

// loop coalesces: once a heartbeat is owed it waits out the window —
// cut short by the kick NoteWrite sends when the Befriend count fills —
// and sends.
func (b *Broadcaster) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.stop:
			return
		case <-b.kick:
		}
		window := time.After(b.cfg.Window)
	coalesce:
		for !b.full() {
			select {
			case <-b.stop:
				return
			case <-window:
				break coalesce
			case <-b.kick: // the Befriend count may have filled: re-check
			}
		}
		b.flushOnce(context.Background())
	}
}

// flushOnce streams the admissible members (live, or with a rejoin gate
// running) through the last held record and folds it in; concurrent
// notes start the next heartbeat. Every failed target counts; if one is
// still admissible afterwards (its rejoin gate runs), the broadcaster
// re-arms — still dirty since the same oldest write — and the loop
// retries after one window. An ejected one owes no retry: catch-up
// repairs it.
func (b *Broadcaster) flushOnce(ctx context.Context) {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	if !b.dirty {
		b.mu.Unlock()
		return
	}
	b.dirty, b.befriends = false, 0
	oldest, f := b.oldest, b.front
	b.mu.Unlock()

	b.counters.Batch()
	if f == nil {
		return
	}
	upto := f.heldEnd()
	var failed atomic.Bool
	var wg sync.WaitGroup
	for i, st := range f.pool.view().states {
		if !st.admissible() {
			continue
		}
		wg.Add(1)
		go func(i int, st *replicaState) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, beatTimeout)
			defer cancel()
			if err := f.beat(sctx, i, upto); err != nil {
				b.counters.Failure()
				if st.admissible() {
					failed.Store(true)
				}
			}
		}(i, st)
	}
	wg.Wait()
	f.settle(upto)
	if failed.Load() {
		b.mu.Lock()
		b.dirty, b.oldest = true, oldest
		b.mu.Unlock()
		b.wake()
	}
}

// Flush synchronously sends the owed heartbeat, if any: when it
// returns, every live replica has applied and folded in every write
// acked before the call. Callers that need read-your-writes across the
// fleet (tests, admin tooling) quiesce with it; the serving path never
// waits on it.
func (b *Broadcaster) Flush(ctx context.Context) {
	b.flushOnce(ctx)
}

// Close stops the loop and sends a last owed heartbeat.
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
	// LagMS is the age of the oldest acknowledged write some live replica
	// has not folded in yet (0 when none).
	LagMS int64
}

// Stats returns current counters.
func (b *Broadcaster) Stats() BroadcastStats {
	b.mu.Lock()
	var lag time.Duration
	if b.dirty {
		lag = time.Since(b.oldest)
	}
	b.mu.Unlock()
	return BroadcastStats{Counters: b.counters.Snapshot(), LagMS: lag.Milliseconds()}
}

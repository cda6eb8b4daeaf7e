package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/social"
	"repro/internal/wal"
)

// DefaultCatchupTimeout bounds one replica's replication log catch-up
// attempt (stream + apply + rejoin invalidation).
const DefaultCatchupTimeout = 30 * time.Second

// replogTruncateEvery is how many replog appends ride between
// truncation sweeps (each sweep reclaims sealed segments below the
// fleet's minimum applied LSN).
const replogTruncateEvery = 1024

// Frontend is the fleet's server.Backend, in the server.Frontend role:
// queries go through the Pool
// (consistent-hash routing, health-checked failover, optional hedging)
// and mutations are forwarded — serialized, so every replica applies
// the identical stream in the identical order, which is what makes
// replica snapshots and the name→id dictionaries they derive agree —
// to every replica, with the dirty edges handed to the Broadcaster for
// batched fleet-wide cache invalidation.
//
// With a replication log attached (UseRepLog), every mutation is
// LSN-stamped and appended to the log *before* fan-out, replicas
// acknowledge with their applied LSN, and an ejected replica is
// readmitted only after catch-up: the pool's rejoin gate streams the
// records the replica missed from the log, in order, and finishes with
// one invalidation scoped to exactly the caught-up dirty edges — so a
// readmitted replica can never serve answers derived from a stale
// graph. Without a replog the PR 4 posture remains: mutations reach
// only reachable replicas and an ejected replica's divergence is
// visible in MissedMutations but not repaired.
type Frontend struct {
	pool   *Pool
	bcast  *Broadcaster
	replog *RepLog // nil: no replication log

	// qnode, when set (UseQuorum), replaces the single-process replog
	// with the quorum-replicated consensus log: this front-end is one of
	// 2–3 HA peers, writes are accepted only while it holds leadership
	// (followers answer NotLeaderError → 307 on the wire), every record
	// is majority-acknowledged before fan-out, and replica catch-up
	// streams the log's committed prefix only.
	qnode *quorum.Node
	// leaderReady opens the quorum write path: false from construction
	// and from every leadership loss, true once the takeover reconcile
	// has brought the live replicas' cursors to the committed prefix.
	// Writes before that would mass-gap-reject the fleet (the takeover
	// term record occupies an LSN replicas have not streamed yet).
	leaderReady atomic.Bool

	// writeMu serializes the mutation path. One writer at a time is the
	// fleet's ordering guarantee; read traffic never takes this lock.
	writeMu sync.Mutex
	// appends counts replog appends since the last truncation sweep
	// (guarded by writeMu).
	appends int

	// MutationTimeout bounds one replica's acknowledgement of one
	// forwarded mutation.
	MutationTimeout time.Duration
	// CatchupTimeout bounds one replica's whole catch-up attempt.
	CatchupTimeout time.Duration
	// NewReplicaClient builds the client for a replica adopted by
	// JoinReplica (nil: NewClient with default config). Set it when the
	// fleet's clients carry non-default timeouts or hedging.
	NewReplicaClient func(url string) (*Client, error)

	// lagMu guards the lag ejector's per-replica memory: the log head and
	// the replica's cursor as of the previous probe sweep. A cursor that
	// sits below the OLD head while making NO progress is a silently
	// restarted or stuck replica; a cursor that is merely behind but
	// advancing is just slow (an in-flight fan-out, a scheduling hiccup)
	// and must not flap the ring.
	lagMu      sync.Mutex
	prevHead   map[int]uint64
	prevCursor map[int]uint64
}

// NewFrontend glues a pool and a broadcaster into a serving backend and
// registers the pool→broadcaster hooks: an ejected replica's broadcasts
// escalate to a global invalidation, and an (ungated) readmission fires
// that escalation immediately rather than waiting for the next flush.
func NewFrontend(pool *Pool, bcast *Broadcaster) (*Frontend, error) {
	if pool == nil || bcast == nil {
		return nil, errors.New("fleet: frontend needs a pool and a broadcaster")
	}
	f := &Frontend{
		pool:            pool,
		bcast:           bcast,
		MutationTimeout: DefaultTimeout,
		CatchupTimeout:  DefaultCatchupTimeout,
	}
	pool.OnEject(bcast.MarkMissed)
	// The eject→live transition must not leave the escalated invalidation
	// to "the next broadcast" — a write-quiet fleet never flushes one. A
	// transient send failure is retried while the replica stays live; if
	// it is ejected again the ejection hook re-owns the debt, and the
	// missed flag survives every failure, so a later broadcast still
	// escalates.
	pool.OnReadmit(func(i int) {
		for attempt := 0; attempt < readmitFlushAttempts; attempt++ {
			if !pool.Live(i) {
				return
			}
			if bcast.FlushMissed(context.Background(), i) == nil {
				return
			}
			time.Sleep(readmitFlushRetryDelay)
		}
	})
	return f, nil
}

// Retry schedule for the readmission-time escalated invalidation.
const (
	readmitFlushAttempts   = 40
	readmitFlushRetryDelay = 250 * time.Millisecond
)

// UseRepLog attaches the replication log and switches the pool to
// catch-up-gated readmission. Call before serving traffic. The log may
// hold history from an earlier front-end run; replicas behind it (all
// of them, for fresh in-memory replicas) are brought up to head by the
// same catch-up path that serves readmission.
func (f *Frontend) UseRepLog(rl *RepLog) error {
	if rl == nil {
		return errors.New("fleet: nil replication log")
	}
	f.replog = rl
	f.prevHead = make(map[int]uint64)
	f.prevCursor = make(map[int]uint64)
	f.pool.SetRejoinGate(f.catchUp)
	// Divergence ejection: a live replica whose self-reported cursor sits
	// two or more records below the head that already existed at the
	// previous probe sweep — without progressing since that sweep — has
	// silently lost or stopped applying history (a restart the fan-out
	// never noticed, a wedged apply loop); eject it so catch-up repairs
	// it. The thresholds are what make this flap-free: writes are
	// serialized, so at most ONE record is ever mid-fan-out — a live
	// replica lagging by exactly one may just be a slow ack, but a lag of
	// two is impossible without a miss (which the write path would have
	// ejected for) or a restart. The no-progress condition is
	// belt-and-braces against delivery paths this analysis missed.
	f.pool.SetLagEjector(func(i int, cursor uint64) bool {
		f.lagMu.Lock()
		defer f.lagMu.Unlock()
		prevH, seen := f.prevHead[i]
		prevC := f.prevCursor[i]
		f.prevHead[i] = f.replog.Head()
		f.prevCursor[i] = cursor
		return seen && cursor+1 < prevH && cursor <= prevC
	})
	return nil
}

// UseQuorum attaches a quorum node in place of a local replication log:
// the consensus log (committed prefix) plays the replog's role in
// catch-up, fan-out ordering and observability, and this front-end
// accepts writes only while the node holds leadership. Mutually
// exclusive with UseRepLog; call before the node is Started and before
// serving traffic.
func (f *Frontend) UseQuorum(n *quorum.Node) error {
	if n == nil {
		return errors.New("fleet: nil quorum node")
	}
	if f.replog != nil {
		return errors.New("fleet: UseRepLog and UseQuorum are mutually exclusive")
	}
	f.qnode = n
	f.prevHead = make(map[int]uint64)
	f.prevCursor = make(map[int]uint64)
	f.pool.SetRejoinGate(f.catchUp)
	// Divergence ejection, leader-only (see UseRepLog for the lag
	// reasoning): followers never fan out writes, so a replica lagging a
	// follower's view of the commit is the leader's business, not
	// grounds for ejection here. The comparison baseline is the commit
	// LSN — the uncommitted suffix is invisible to replicas by design.
	f.pool.SetLagEjector(func(i int, cursor uint64) bool {
		if !n.IsLeader() {
			return false
		}
		f.lagMu.Lock()
		defer f.lagMu.Unlock()
		prevH, seen := f.prevHead[i]
		prevC := f.prevCursor[i]
		f.prevHead[i] = n.CommitLSN()
		f.prevCursor[i] = cursor
		return seen && cursor+1 < prevH && cursor <= prevC
	})
	n.OnRoleChange(func(leader bool, term uint64) {
		if !leader {
			f.leaderReady.Store(false)
			return
		}
		f.reconcile(term)
	})
	return nil
}

// reconcile runs on leadership takeover: wait for the takeover term
// record to commit (which commits the whole inherited prefix under it),
// stream every live replica up to the committed prefix — term records
// and all, via the same catch-up path ejected replicas use — and only
// then open the write path. Retries until it succeeds or leadership is
// lost; meanwhile writes answer 503 ("leadership settling") rather
// than mass-ejecting replicas on takeover-gap rejections.
func (f *Frontend) reconcile(term uint64) {
	stillLeading := func() bool {
		return f.qnode.IsLeader() && f.qnode.Term() == term
	}
	// The write path is closed, so the head is stable: it is exactly the
	// inherited prefix plus our term record.
	takeoverHead := f.qnode.Head()
	for stillLeading() && f.qnode.CommitLSN() < takeoverHead {
		time.Sleep(10 * time.Millisecond)
	}
	for stillLeading() {
		settled := true
		for i := 0; i < f.pool.Replicas(); i++ {
			if !f.pool.Live(i) {
				continue // the rejoin gate owns ejected replicas
			}
			if err := f.catchUp(i); err != nil {
				settled = false
			}
		}
		if settled {
			f.leaderReady.Store(true)
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// logHead is the highest LSN the attached log (replog or quorum) has
// issued; acks beyond it are epoch-mismatch evidence.
func (f *Frontend) logHead() uint64 {
	if f.qnode != nil {
		return f.qnode.Head()
	}
	return f.replog.Head()
}

var (
	_ search.Searcher = (*Frontend)(nil)
	_ server.Frontend = (*Frontend)(nil)
)

// Do routes one query through the pool.
func (f *Frontend) Do(ctx context.Context, req search.Request) (search.Response, error) {
	return f.pool.Do(ctx, req)
}

// DoBatch routes a batch through the pool.
func (f *Frontend) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	return f.pool.DoBatch(ctx, reqs)
}

// forward fans one mutation out. lsn is the replication LSN the record
// was appended under (0 without a replog).
//
// Without a replog (lsn == 0), the PR 4 contract holds: every replica
// is tried; a replica that rejects the mutation as invalid fails the
// call (every replica rejects the same input the same way, so nothing
// was applied anywhere); an unreachable replica feeds health state, is
// counted in MissedMutations — the stats-visible record of divergence —
// and is skipped.
//
// With a replog, ejected replicas are skipped outright (their missed
// mutations are in the log and arrive via catch-up, still counted in
// MissedMutations), replicas mid-catch-up are included — the LSN
// ordering rule makes that safe: the record either applies cleanly or
// is refused with ErrBehind and left to the catch-up stream — and a
// *live* replica answering ErrBehind is divergence evidence that feeds
// its health state so ejection and catch-up follow.
func (f *Frontend) forward(ctx context.Context, lsn uint64, send func(ctx context.Context, c *Client) (uint64, error)) error {
	ctx, fsp := obs.StartSpan(ctx, "fleet.forward")
	defer fsp.End()
	fsp.SetInt("lsn", int64(lsn))
	applied := 0
	var lastUnavailable, lastInvalid error
	for i := 0; i < f.pool.Replicas(); i++ {
		if f.pool.Retired(i) {
			continue
		}
		st := f.pool.state(i)
		if lsn > 0 && !st.admissible() {
			st.counters.MissedMutation()
			continue
		}
		c := f.pool.Client(i)
		// One timeout per replica, not one shared across the fan-out: a
		// blackholed replica must cost its own deadline, never starve
		// the later replicas into spurious failures. The parent ctx
		// carries only trace values, never cancellation (BefriendCtx
		// strips it), so a client hang-up cannot abort the fan-out
		// half-way into divergence.
		ctx, cancel := context.WithTimeout(ctx, f.MutationTimeout)
		ack, err := send(ctx, c)
		cancel()
		if err == nil {
			if lsn > 0 {
				if ack > f.logHead() {
					// The replica's cursor is beyond anything this log ever
					// issued: a replication epoch mismatch (e.g. the
					// front-end was restarted with a fresh -replog-dir over
					// running replicas). The "success" was a dedup no-op —
					// every write would silently vanish this way — so eject
					// the replica and surface the mismatch; catch-up refuses
					// it too, keeping it out until an operator intervenes.
					st.counters.MissedMutation()
					st.eject(fmt.Errorf("fleet: replication epoch mismatch: replica cursor %d beyond log head", ack))
					f.bcast.MarkMissed(i)
					continue
				}
				f.pool.noteApplied(i, ack)
			}
			applied++
			st.ok()
			continue
		}
		if errors.Is(err, ErrBehind) {
			// The record is durably in the log; catch-up delivers it. A
			// replica mid-catch-up answering this is routine; one that
			// claims to be live has PROVABLY missed history — eject it now
			// (FailAfter is for ambiguous evidence, not known divergence).
			if st.isLive() {
				st.counters.MissedMutation()
				st.eject(err)
				f.bcast.MarkMissed(i)
			}
			continue
		}
		if lsn == 0 && errors.Is(err, search.ErrOverloaded) {
			// Shared-fate shed: the replica is healthy but at capacity —
			// return the 429 (Retry-After hint intact) to the client
			// instead of ejecting a replica for protecting itself. The
			// client's backoff-retry re-forwards the mutation; replicas
			// earlier in the fan-out that already applied it get their
			// dirty edge noted by the caller (see BefriendCtx), and
			// unstamped mode's divergence accounting already owns the gap
			// until then. Stamped mutations never take this branch:
			// replicas exempt the replication apply path from admission,
			// so an overload answer there is divergence and falls through
			// below.
			st.counters.MissedMutation()
			return err
		}
		if errors.Is(err, search.ErrInvalid) {
			if lsn == 0 {
				// Every replica rejects the same input the same way, so
				// nothing was applied anywhere; fail the call.
				return err
			}
			// With a replog the record is already durably logged (the
			// front-end pre-validates, so this is belt-and-braces): the
			// replica processed-and-rejected it deterministically,
			// advancing its cursor, and the rest of the fleet must do the
			// same in lockstep — keep fanning out, report the rejection
			// at the end.
			lastInvalid = err
			st.ok()
			f.pool.noteApplied(i, lsn)
			continue
		}
		st.counters.MissedMutation()
		lastUnavailable = err
		if lsn > 0 && st.isLive() {
			// A live replica that failed a stamped mutation has missed it
			// for certain. Don't wait out FailAfter probes while it serves
			// a stale graph: eject now, let catch-up repair and readmit.
			st.eject(err)
		} else {
			st.fail(err)
		}
		f.bcast.MarkMissed(i)
	}
	if lastInvalid != nil {
		return lastInvalid
	}
	if applied == 0 {
		if lastUnavailable != nil {
			return lastUnavailable
		}
		return unavailablef("no replicas")
	}
	return nil
}

// Befriend forwards the friendship mutation to every replica and notes
// the dirty edge for the next invalidation broadcast. With a replog the
// record is validated, durably logged, and only then fanned out.
func (f *Frontend) Befriend(a, b string, weight float64) error {
	return f.BefriendCtx(context.Background(), a, b, weight)
}

// BefriendCtx is Befriend carrying the request context's trace through
// the append and fan-out path (server.Frontend's mutation surface).
func (f *Frontend) BefriendCtx(ctx context.Context, a, b string, weight float64) error {
	return f.mutate(ctx, social.Mutation{Kind: social.KindBefriend, User: a, Friend: b, Weight: weight})
}

// Tag forwards the tagging mutation to every replica and schedules the
// compaction heartbeat that makes it queryable fleet-wide.
func (f *Frontend) Tag(user, item, tag string) error {
	return f.TagCtx(context.Background(), user, item, tag)
}

// TagCtx is Tag carrying the request context's trace.
func (f *Frontend) TagCtx(ctx context.Context, user, item, tag string) error {
	return f.mutate(ctx, social.Mutation{Kind: social.KindTag, User: user, Item: item, Tag: tag})
}

// mutate is the front-end's one mutation path: validate and log (when
// there is a log), fan out, tell the broadcaster. Cancellation is
// stripped up front: once the record is durably logged the fan-out must
// run to completion whether or not the client is still listening, or
// replicas would diverge on a hang-up.
func (f *Frontend) mutate(ctx context.Context, m social.Mutation) error {
	ctx = context.WithoutCancel(ctx)
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	var lsn uint64
	if f.qnode != nil || f.replog != nil {
		// The record is appended before fan-out, so anything a replica
		// would deterministically reject must be caught first — the log
		// must never grow a record the fleet cannot apply. The rule is the
		// replicas' own. (Without a log nothing is recorded, and the
		// replicas' identical rejections are the answer.)
		if err := m.Validate(); err != nil {
			return err
		}
		rec, payload, err := durable.EncodeMutation(m)
		if err != nil {
			return err
		}
		if f.qnode != nil {
			lsn, err = f.quorumAppend(ctx, rec, payload)
		} else {
			lsn, err = f.replogAppend(ctx, rec, payload)
		}
		if err != nil {
			return err
		}
	}
	err := f.forward(ctx, lsn, func(ctx context.Context, c *Client) (uint64, error) {
		if m.Kind == social.KindBefriend {
			return c.Befriend(ctx, m.User, m.Friend, m.Weight, lsn)
		}
		return c.Tag(ctx, m.User, m.Item, m.Tag, lsn)
	})
	// A shed aborts the fan-out partway: replicas before the shedding one
	// applied the mutation, and their caches must not outlive a new edge
	// (nor miss the compaction heartbeat a tagging needs) just because
	// the client was told to back off.
	if err == nil || errors.Is(err, search.ErrOverloaded) {
		if m.Kind == social.KindBefriend {
			f.bcast.NoteEdge(m.User, m.Friend)
		} else {
			f.bcast.NoteWrite()
		}
	}
	return err
}

// replogAppend wraps one replication log append in its trace span and
// the periodic log maintenance. Callers hold writeMu.
func (f *Frontend) replogAppend(ctx context.Context, t wal.Type, payload []byte) (uint64, error) {
	if !f.pool.anyLive() {
		return 0, unavailablef("no live replica to accept the write")
	}
	_, sp := obs.StartSpan(ctx, "replog.append")
	defer sp.End()
	lsn, err := f.replog.log.Append(t, payload)
	if err != nil {
		return 0, fmt.Errorf("fleet: replication log append: %w", err)
	}
	sp.SetInt("lsn", int64(lsn))
	f.noteAppendLocked()
	return lsn, nil
}

// quorumAppend is the leader-only half of a quorum-mode mutation: gate
// on leadership and reconcile state, then append to the consensus log
// and wait for the majority ack. Only after it returns does the record
// exist for the fleet — fan-out of an uncommitted record could surface
// a write a new leader later disowns. Callers hold writeMu.
func (f *Frontend) quorumAppend(ctx context.Context, t wal.Type, payload []byte) (uint64, error) {
	if !f.qnode.IsLeader() {
		return 0, f.qnode.NotLeader()
	}
	if !f.leaderReady.Load() {
		return 0, unavailablef("leadership settling: replica reconcile in progress")
	}
	if !f.pool.anyLive() {
		return 0, unavailablef("no live replica to accept the write")
	}
	// The span covers append → majority replicate → commit; the caller's
	// ctx carries trace values only (cancellation already stripped), so
	// the append still runs under its own timeout.
	ctx, sp := obs.StartSpan(ctx, "quorum.commit")
	defer sp.End()
	ctx, cancel := context.WithTimeout(ctx, f.MutationTimeout)
	defer cancel()
	lsn, err := f.qnode.Append(ctx, t, payload)
	if err != nil {
		var nle *quorum.NotLeaderError
		if errors.As(err, &nle) {
			return 0, err
		}
		return 0, unavailablef("quorum append: %v", err)
	}
	sp.SetInt("lsn", int64(lsn))
	sp.SetInt("term", int64(f.qnode.Term()))
	return lsn, nil
}

// noteAppendLocked runs the periodic replog maintenance: every
// replogTruncateEvery appends, raise the truncation barrier to the
// fleet's minimum applied LSN + 1 and reclaim the sealed prefix below
// it. Callers hold writeMu.
func (f *Frontend) noteAppendLocked() {
	f.appends++
	if f.appends < replogTruncateEvery {
		return
	}
	f.appends = 0
	barrier := f.pool.minApplied() + 1
	f.replog.SetBarrier(barrier)
	// Reclaim everything the barrier permits; errors are advisory (the
	// next sweep retries) but must not fail the write.
	_ = f.replog.TruncateThrough(f.replog.Head())
}

// catchUp is the pool's rejoin gate: bring replica i from its applied
// LSN to the replication log head, then send one invalidation scoped to
// exactly the dirty edges of the caught-up records. Runs concurrently
// with foreground writes — the loop re-reads the head until the replica
// has it, and the LSN ordering rule keeps the two delivery paths
// (catch-up stream, direct fan-out to a catching-up replica) from ever
// applying a record twice or out of order.
func (f *Frontend) catchUp(i int) error {
	if f.replog == nil && f.qnode == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.CatchupTimeout)
	defer cancel()
	c := f.pool.Client(i)

	// The replica's own cursor is authoritative — a restarted replica is
	// back at zero no matter what our ack tracking remembers — so the
	// tracked value is overwritten, not maxed: the truncation barrier
	// must observe the reset.
	applied, err := c.Healthz(ctx)
	if err != nil {
		return err
	}
	if applied > f.logHead() {
		// The replica has applied records this log never issued: a
		// replication epoch mismatch (fresh -replog-dir over running
		// replicas). "Catching it up" would silently dedup-skip every
		// future write; keep it out until an operator resolves the epoch
		// (restore the original log, or restart the replica clean).
		return fmt.Errorf("fleet: replication epoch mismatch: replica cursor %d beyond log head %d", applied, f.logHead())
	}
	f.pool.state(i).setApplied(applied)

	if f.qnode != nil && !f.qnode.IsLeader() {
		// Follower gate: streaming records to replicas is the leader's
		// job (one writer, one delivery order). This follower only
		// verifies the replica has reached the committed prefix as this
		// node knows it before letting it back into the read ring; until
		// then the gate fails and the next probe sweep retries.
		if commit := f.qnode.CommitLSN(); applied < commit {
			return unavailablef("replica cursor %d behind quorum commit %d (the leader streams catch-up)", applied, commit)
		}
		return nil
	}

	// Leader (or single-front-end replog) streaming path. In quorum
	// mode the stream is bounded by the COMMITTED prefix: an
	// uncommitted record must never reach a replica, or a conflicting
	// leader change would leave it serving history the cluster
	// disowned.
	readLog := func(from uint64, fn func(wal.Record) error) (uint64, error) {
		if f.qnode != nil {
			return f.qnode.ReadCommitted(from, fn)
		}
		return f.replog.ReadFrom(from, fn)
	}

	replayed := 0
	edgeSeen := make(map[[2]string]struct{})
	var edges [][2]string
	for {
		_, err := readLog(applied+1, func(rec wal.Record) error {
			if rec.LSN <= applied {
				return nil // another delivery path got there first
			}
			switch rec.Type {
			case durable.RecBefriend:
				a, b, w, derr := durable.DecodeBefriend(rec.Data)
				if derr != nil {
					return derr
				}
				ack, aerr := c.Befriend(ctx, a, b, w, rec.LSN)
				if aerr != nil && !errors.Is(aerr, search.ErrInvalid) {
					return aerr
				}
				// A deterministic rejection still advances the replica's
				// cursor — every replica skips the same record identically.
				applied = rec.LSN
				if ack > applied {
					applied = ack
				}
				key := [2]string{a, b}
				if b < a {
					key = [2]string{b, a}
				}
				if _, ok := edgeSeen[key]; !ok {
					edgeSeen[key] = struct{}{}
					edges = append(edges, key)
				}
			case durable.RecTag:
				u, it, tg, derr := durable.DecodeTag(rec.Data)
				if derr != nil {
					return derr
				}
				ack, aerr := c.Tag(ctx, u, it, tg, rec.LSN)
				if aerr != nil && !errors.Is(aerr, search.ErrInvalid) {
					return aerr
				}
				applied = rec.LSN
				if ack > applied {
					applied = ack
				}
			case durable.RecTerm:
				// Leadership records carry no mutation: the replica just
				// advances its cursor past them, keeping LSN arithmetic in
				// lockstep with the quorum log.
				ack, aerr := c.Skip(ctx, rec.LSN)
				if aerr != nil {
					return aerr
				}
				applied = rec.LSN
				if ack > applied {
					applied = ack
				}
			default:
				return fmt.Errorf("fleet: replog lsn %d: unknown record type %d", rec.LSN, rec.Type)
			}
			replayed++
			f.pool.noteApplied(i, applied)
			return nil
		})
		if err != nil {
			return err
		}
		// Exit only against the CURRENT head, never the head the pass
		// captured: a record appended after the pass started may already
		// have been gap-rejected at fan-out (the replica's cursor was
		// behind), so only the catch-up stream will ever deliver it. Any
		// record that can gap-reject was appended before this check reads
		// the head; conversely, once the replica holds the current head,
		// every later record reaches it directly (cursor == lsn-1 at
		// fan-out time — writes are serialized), so no gap can form after
		// the loop exits. In quorum mode the moving target is the commit
		// LSN, for the same reason.
		target := f.logHead()
		if f.qnode != nil {
			target = f.qnode.CommitLSN()
		}
		if applied >= target {
			break
		}
		// The head moved while we streamed (foreground writes); go again
		// from where the replica now is.
	}

	// One rejoin invalidation: edge-scoped to exactly the caught-up dirty
	// edges (escalating to global only past the broadcast batch bound),
	// and — records or not — the compaction heartbeat that folds the
	// replayed writes into the replica's queryable snapshot. Only after
	// it succeeds is the escalated-global debt for missed broadcasts
	// withdrawn: everything a missed broadcast would have dropped is
	// covered by the replica's own dirty tracking (for writes it applied
	// itself) plus this edge set (for writes it missed).
	all := false
	if len(edges) > f.bcast.cfg.MaxBatchEdges {
		all, edges = true, nil
	}
	// Capture the miss sequence before the invalidation: a broadcast that
	// fails for this replica after this point is NOT covered by it, and
	// the guarded clear below must leave that debt standing.
	seq := f.bcast.MissedSeq(i)
	if _, err := c.Invalidate(ctx, edges, all); err != nil {
		return err
	}
	f.bcast.ClearMissedIf(i, seq)
	c.Counters().Catchup(replayed)
	return nil
}

// Users asks the first live replica (replicas agree on the user set, up
// to in-flight forwards).
func (f *Frontend) Users() []string {
	ctx, cancel := context.WithTimeout(context.Background(), f.MutationTimeout)
	defer cancel()
	for i := 0; i < f.pool.Replicas(); i++ {
		if !f.pool.Live(i) {
			continue
		}
		if users, err := f.pool.Client(i).Users(ctx); err == nil {
			return users
		}
	}
	return nil
}

// Flush synchronously broadcasts pending invalidations — the fleet
// equivalent of social.Service.Flush.
func (f *Frontend) Flush() error {
	f.bcast.Flush(context.Background())
	return nil
}

// ReplogPage is server.Frontend's replication-log surface: GET
// /v2/replog pages through the replication log, so operators (and
// external tooling) can inspect exactly the stream replicas catch up
// from.
func (f *Frontend) ReplogPage(from uint64, max int) (server.ReplogPage, error) {
	if f.qnode != nil {
		// Serve the COMMITTED prefix only: the uncommitted suffix may be
		// disowned by a leader change, and external auditors comparing
		// HA peers' logs must see streams that can only agree.
		page := server.ReplogPage{From: from}
		head, err := f.qnode.ReadCommitted(from, func(rec wal.Record) error {
			if len(page.Records) >= max {
				return errPageFull
			}
			page.Records = append(page.Records, server.ReplogRecord{
				LSN:  rec.LSN,
				Type: uint8(rec.Type),
				Data: append([]byte(nil), rec.Data...),
			})
			return nil
		})
		if err != nil && !errors.Is(err, errPageFull) {
			return server.ReplogPage{}, err
		}
		page.Head = head
		return page, nil
	}
	if f.replog == nil {
		return server.ReplogPage{}, server.ErrNoReplog
	}
	return f.replog.Page(from, max)
}

// ReplogStats is the replication log's observable state.
type ReplogStats struct {
	// Head is the LSN of the last appended record.
	Head uint64
	// Barrier is the truncation barrier (fleet min applied LSN + 1 as of
	// the last maintenance sweep).
	Barrier uint64
	// Segments is the number of live log segment files.
	Segments int
	// MinAppliedLSN is the lowest replica cursor currently tracked.
	MinAppliedLSN uint64
}

// Stats is the fleet front door's /v1/stats payload.
type Stats struct {
	Replicas  []ReplicaStats
	Broadcast BroadcastStats
	Replog    *ReplogStats  `json:",omitempty"`
	Quorum    *quorum.Stats `json:",omitempty"`
}

// StatsAny is server.Frontend's stats surface.
func (f *Frontend) StatsAny() interface{} {
	st := Stats{Replicas: f.pool.Stats(), Broadcast: f.bcast.Stats()}
	if f.qnode != nil {
		qs := f.qnode.Stats()
		st.Quorum = &qs
		// Replica lag is measured against the committed prefix — the
		// only part of the log replicas are ever streamed.
		for i := range st.Replicas {
			if qs.CommitLSN > st.Replicas[i].AppliedLSN {
				st.Replicas[i].ReplogLag = qs.CommitLSN - st.Replicas[i].AppliedLSN
			}
		}
		st.Replog = &ReplogStats{
			Head:          qs.Head,
			Segments:      qs.Segments,
			MinAppliedLSN: f.pool.minApplied(),
		}
		return st
	}
	if f.replog != nil {
		head := f.replog.Head()
		for i := range st.Replicas {
			if head > st.Replicas[i].AppliedLSN {
				st.Replicas[i].ReplogLag = head - st.Replicas[i].AppliedLSN
			}
		}
		st.Replog = &ReplogStats{
			Head:          head,
			Barrier:       f.replog.Barrier(),
			Segments:      f.replog.Segments(),
			MinAppliedLSN: f.pool.minApplied(),
		}
	}
	return st
}

// QuorumRole is server.Frontend's role surface for HA front-ends: the
// node's role, believed leader URL, and term ride on /healthz headers.
// Without a quorum node the role is empty and the server omits the
// headers.
func (f *Frontend) QuorumRole() (role, leaderURL string, term uint64) {
	if f.qnode == nil {
		return "", "", 0
	}
	_, leaderURL = f.qnode.Leader()
	role = "follower"
	if f.qnode.IsLeader() {
		role = "leader"
	}
	return role, leaderURL, f.qnode.Term()
}

// Close stops the pool's prober, drains the broadcaster and closes the
// replication log (or quorum node).
func (f *Frontend) Close() {
	f.pool.Close()
	f.bcast.Close()
	if f.replog != nil {
		f.replog.Close()
	}
	if f.qnode != nil {
		f.qnode.Close()
	}
}

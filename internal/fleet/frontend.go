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
// attempt (stream + apply + closing heartbeat).
const DefaultCatchupTimeout = 30 * time.Second

// Frontend is the fleet's server.Backend, in the server.Frontend role:
// queries go through the Pool
// (consistent-hash routing, health-checked failover, optional hedging)
// and mutations are forwarded — serialized, so every replica applies
// the identical stream in the identical order, which is what makes
// replica snapshots and the name→id dictionaries they derive agree —
// to every replica, with the Broadcaster told a compaction heartbeat is
// owed.
//
// There is one write path and it runs through a log (UseRepLog, or
// UseQuorum for HA front-ends; until one is attached the front-end
// serves reads and refuses writes): every mutation is validated,
// LSN-stamped and appended to the log *before* fan-out, replicas
// acknowledge with their applied LSN, and an ejected replica is
// readmitted only after catch-up: the pool's rejoin gate streams the
// records the replica missed from the log, in order, and finishes with
// the heartbeat that folds them in — so a readmitted replica can never
// serve answers derived from a stale graph.
type Frontend struct {
	pool  *Pool
	bcast *Broadcaster

	// log is the attached mutationLog, published once (attach) and read
	// through attached(): the rejoin gate may already run when it is set.
	log atomic.Value
	// replog is the attached log when it is the single-front-end one —
	// what elastic resize requires (resize.go); nil otherwise.
	replog *RepLog
	// qnode is the attached log's quorum node when this front-end is one
	// of 2–3 HA peers (UseQuorum): writes are accepted only while it
	// holds leadership (followers answer NotLeaderError → 307 on the
	// wire), every record is majority-acknowledged before fan-out, and
	// replica catch-up streams the log's committed prefix only.
	qnode *quorum.Node
	// ready opens the write path: true from UseRepLog on; under a quorum
	// false from construction and from every leadership loss, true once
	// the takeover reconcile has brought the live replicas' cursors to
	// the committed prefix. Writes before that would mass-gap-reject the
	// fleet (the takeover term record occupies an LSN replicas have not
	// streamed yet).
	ready atomic.Bool

	// writeMu serializes the mutation path. One writer at a time is the
	// fleet's ordering guarantee; read traffic never takes this lock.
	writeMu sync.Mutex

	// MutationTimeout bounds one replica's acknowledgement of one
	// forwarded mutation.
	MutationTimeout time.Duration
	// CatchupTimeout bounds one replica's whole catch-up attempt.
	CatchupTimeout time.Duration
	// NewReplicaClient builds the client for a replica adopted by
	// JoinReplica (nil: NewClient with default config). Set it when the
	// fleet's clients carry non-default timeouts or hedging.
	NewReplicaClient func(url string) (*Client, error)
}

// NewFrontend glues a pool and a broadcaster into a serving backend:
// the heartbeat takes its targets from the pool, and readmission is
// gated on catch-up from construction — a front-end never flips a
// replica live on probe successes alone.
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
	bcast.mu.Lock()
	bcast.pool = pool
	bcast.mu.Unlock()
	pool.SetRejoinGate(f.catchUp)
	return f, nil
}

// errNoLog refuses writes and readmissions on a front-end no log has
// been attached to yet.
var errNoLog = unavailablef("no replication log attached (UseRepLog or UseQuorum)")

// attached returns the log behind the write path, nil before UseRepLog
// or UseQuorum.
func (f *Frontend) attached() mutationLog {
	log, _ := f.log.Load().(mutationLog)
	return log
}

// attach publishes the log and starts divergence ejection against it
// (replicaState.lagging has the reasoning), on the streaming node only:
// quorum followers never fan out writes, so a replica lagging a
// follower's view of the commit is the leader's business, not grounds
// for ejection there. The baseline is the deliverable bound — an
// uncommitted suffix is invisible to replicas by design.
func (f *Frontend) attach(log mutationLog) error {
	if !f.log.CompareAndSwap(nil, log) {
		return errors.New("fleet: a replication log is already attached (UseRepLog and UseQuorum are mutually exclusive)")
	}
	f.pool.SetLagBound(func() uint64 {
		if log.leading() != nil {
			return 0
		}
		return log.deliverable()
	})
	return nil
}

// UseRepLog attaches the single-front-end replication log. Call before
// serving traffic. The log may hold history from an earlier front-end
// run; replicas behind it (all of them, for fresh in-memory replicas)
// are brought up to head by the same catch-up path that serves
// readmission.
func (f *Frontend) UseRepLog(rl *RepLog) error {
	if rl == nil {
		return errors.New("fleet: nil replication log")
	}
	rl.minApplied = f.pool.minApplied
	if err := f.attach(rl); err != nil {
		return err
	}
	f.replog = rl
	f.ready.Store(true)
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
	if err := f.attach(quorumLog{Node: n, f: f}); err != nil {
		return err
	}
	f.qnode = n
	n.OnRoleChange(func(leader bool, term uint64) {
		if !leader {
			f.ready.Store(false)
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
			f.ready.Store(true)
			return
		}
		time.Sleep(100 * time.Millisecond)
	}
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

// deliver hands one page of LSN-consecutive log records (a zero Kind,
// a quorum leadership record, is a skip) to one replica over POST
// /v2/apply and returns the cursor it acknowledged. It is the only
// sender of replication records: fan-out sends one-record pages and
// catch-up packs what it streams from the log. Records the replica
// rejected deterministically come back as ErrInvalid beside the cursor.
func deliver(ctx context.Context, c *Client, page []social.Mutation) (uint64, error) {
	var out server.AppliedResponse
	if err := c.post(ctx, "/v2/apply", server.ApplyRequest{Records: page}, &out); err != nil {
		if errors.Is(err, search.ErrInvalid) {
			// The page itself was refused and nothing of it applied: not
			// the rejection class, which callers count as processed.
			return 0, fmt.Errorf("fleet: apply page refused: %v", err)
		}
		return 0, err
	}
	obs.MergeRemote(ctx, out.Spans)
	if len(out.Rejected) > 0 {
		first := out.Rejected[0]
		return out.AppliedLSN, search.WrapInvalid(fmt.Errorf("%s /v2/apply: %d of %d records rejected, first lsn %d: %s",
			c.base, len(out.Rejected), len(page), first.LSN, first.Error))
	}
	return out.AppliedLSN, nil
}

// forward fans one logged mutation (m.LSN is the LSN it was appended
// under; head the log head, for the epoch check) out to the fleet.
//
// Ejected replicas are skipped outright (their missed mutations are in
// the log and arrive via catch-up, counted in MissedMutations — the
// stats-visible record of divergence), replicas mid-catch-up are
// included — the LSN ordering rule makes that safe: the record either
// applies cleanly or is refused with ErrBehind and left to the catch-up
// stream — and a *live* replica answering ErrBehind is divergence
// evidence that feeds its health state so ejection and catch-up follow.
func (f *Frontend) forward(ctx context.Context, m social.Mutation, head uint64) error {
	ctx, fsp := obs.StartSpan(ctx, "fleet.forward")
	defer fsp.End()
	fsp.SetInt("lsn", int64(m.LSN))
	applied := 0
	var lastUnavailable, lastInvalid error
	for i := 0; i < f.pool.Replicas(); i++ {
		if f.pool.Retired(i) {
			continue
		}
		st := f.pool.state(i)
		if !st.admissible() {
			st.counters.MissedMutation()
			continue
		}
		// One timeout per replica, not one shared across the fan-out: a
		// blackholed replica must cost its own deadline, never starve
		// the later replicas into spurious failures. The parent ctx
		// carries only trace values, never cancellation (mutate strips
		// it), so a client hang-up cannot abort the fan-out half-way into
		// divergence.
		ctx, cancel := context.WithTimeout(ctx, f.MutationTimeout)
		ack, err := deliver(ctx, f.pool.Client(i), []social.Mutation{m})
		cancel()
		if err == nil {
			if err := checkEpoch(ack, head); err != nil {
				// The "success" was a dedup no-op: eject the replica and
				// surface the mismatch; catch-up refuses it too.
				st.counters.MissedMutation()
				st.eject(err)
				continue
			}
			st.noteApplied(ack)
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
			}
			continue
		}
		if errors.Is(err, search.ErrInvalid) {
			// The record is already durably logged (mutate pre-validates,
			// so this is belt-and-braces): the replica
			// processed-and-rejected it deterministically, advancing its
			// cursor, and the rest of the fleet must do the same in
			// lockstep — keep fanning out, report the rejection at the end.
			lastInvalid = err
			st.ok()
			st.noteApplied(m.LSN)
			continue
		}
		st.counters.MissedMutation()
		lastUnavailable = err
		if st.isLive() {
			// A live replica that failed a stamped mutation has missed it
			// for certain — even an overload answer: replicas exempt the
			// replication apply path from admission. Don't wait out
			// FailAfter probes while it serves a stale graph: eject now,
			// let catch-up repair and readmit.
			st.eject(err)
		} else {
			st.fail(err)
		}
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

// Befriend validates and durably logs the friendship mutation, forwards
// it to every replica and schedules the compaction heartbeat that makes
// it queryable fleet-wide.
func (f *Frontend) Befriend(a, b string, weight float64) error {
	return f.Mutate(context.Background(), social.Mutation{Kind: social.KindBefriend, User: a, Friend: b, Weight: weight})
}

// Tag is Befriend for a tagging mutation.
func (f *Frontend) Tag(user, item, tag string) error {
	return f.Mutate(context.Background(), social.Mutation{Kind: social.KindTag, User: user, Item: item, Tag: tag})
}

// Mutate is the front-end's one mutation path (server.Frontend's write
// surface, carrying the request context's trace), the replica funnel's
// mirror image: validate, append to the log, deliver that record, tell
// the broadcaster. m.LSN is the log's to assign. Cancellation is
// stripped up front: once the record is durably logged the fan-out
// must run to completion whether or not the client is still listening,
// or replicas would diverge on a hang-up.
func (f *Frontend) Mutate(ctx context.Context, m social.Mutation) error {
	ctx = context.WithoutCancel(ctx)
	log := f.attached()
	if log == nil {
		return errNoLog
	}
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	// The record is appended before fan-out, so anything a replica would
	// deterministically reject must be caught first — the log must never
	// grow a record the fleet cannot apply. The rule is the replicas' own.
	if err := m.Validate(); err != nil {
		return err
	}
	rec, payload, err := durable.EncodeMutation(m)
	if err != nil {
		return err
	}
	if err := log.leading(); err != nil {
		return err
	}
	if !f.ready.Load() {
		return unavailablef("leadership settling: replica reconcile in progress")
	}
	if !f.pool.anyLive() {
		return unavailablef("no live replica to accept the write")
	}
	if m.LSN, err = log.append(ctx, rec, payload); err != nil {
		return err
	}
	if err := f.forward(ctx, m, log.Head()); err != nil {
		return err
	}
	f.bcast.NoteWrite(m.Kind == social.KindBefriend)
	return nil
}

// probeCursor asks replica i itself where it is and makes that the
// tracked cursor. The replica's own cursor is authoritative — a
// restarted replica is back at zero no matter what our ack tracking
// remembers — so the tracked value is overwritten, not maxed: the
// truncation barrier must observe the reset. A cursor from another
// replication epoch is refused (checkEpoch).
func (f *Frontend) probeCursor(ctx context.Context, log mutationLog, i int) (uint64, error) {
	cursor, err := f.pool.Client(i).Healthz(ctx)
	if err != nil {
		return 0, err
	}
	if err := checkEpoch(cursor, log.Head()); err != nil {
		return 0, err
	}
	f.pool.state(i).setApplied(cursor)
	return cursor, nil
}

// catchUp is the pool's rejoin gate: bring replica i from its applied
// LSN to the replication log head, then send it one heartbeat so it
// folds the caught-up records in — dropping, by the friendships pending
// in its own overlay, exactly the horizons they could affect. The
// records go out in apply pages of up to server.MaxReplogPageRecords,
// so N missed records cost ⌈N/1024⌉ requests, not N. Runs
// concurrently with foreground writes — the loop re-reads the head
// until the replica has it, and the LSN ordering rule keeps the two
// delivery paths (catch-up stream, direct fan-out to a catching-up
// replica) from ever applying a record twice or out of order.
func (f *Frontend) catchUp(i int) error {
	log := f.attached()
	if log == nil {
		return errNoLog
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.CatchupTimeout)
	defer cancel()
	c := f.pool.Client(i)
	applied, err := f.probeCursor(ctx, log, i)
	if err != nil {
		return err
	}

	if log.leading() != nil {
		// Follower gate: streaming records to replicas is the leader's
		// job (one writer, one delivery order). This follower only
		// verifies the replica has reached the committed prefix as this
		// node knows it before letting it back into the read ring; until
		// then the gate fails and the next probe sweep retries.
		if commit := log.deliverable(); applied < commit {
			return unavailablef("replica cursor %d behind quorum commit %d (the leader streams catch-up)", applied, commit)
		}
		return nil
	}

	replayed := 0
	var page []social.Mutation
	size := 0
	send := func() error {
		ack, err := deliver(ctx, c, page)
		if err != nil && !errors.Is(err, search.ErrInvalid) {
			return err
		}
		// A deterministic rejection still advances the replica's cursor —
		// every replica skips the same record identically.
		applied = max(page[len(page)-1].LSN, ack)
		replayed += len(page)
		f.pool.state(i).noteApplied(applied)
		page, size = page[:0], 0
		return nil
	}
	for {
		_, err := log.ReadFrom(applied+1, func(rec wal.Record) error {
			if rec.LSN <= applied {
				return nil // another delivery path got there first
			}
			m, err := durable.DecodeMutation(rec)
			if err != nil {
				return fmt.Errorf("fleet: replog lsn %d: %w", rec.LSN, err)
			}
			m.LSN = rec.LSN
			// A page stays within the record and body bounds of one
			// request; a record's bytes are counted as if every name byte
			// were escaped (\u00XX).
			bytes := 96 + 6*(len(m.User)+len(m.Friend)+len(m.Item)+len(m.Tag))
			if len(page) == server.MaxReplogPageRecords || len(page) > 0 && size+bytes > server.MaxBodyBytes {
				if err := send(); err != nil {
					return err
				}
			}
			page, size = append(page, m), size+bytes
			return nil
		})
		if err == nil && len(page) > 0 {
			err = send()
		}
		if err != nil {
			return err
		}
		// Exit only against the CURRENT bound, never the one the pass
		// captured: a record appended after the pass started may already
		// have been gap-rejected at fan-out (the replica's cursor was
		// behind), so only the catch-up stream will ever deliver it. Any
		// record that can gap-reject was appended before this check reads
		// the head; conversely, once the replica holds the current head,
		// every later record reaches it directly (cursor == lsn-1 at
		// fan-out time — writes are serialized), so no gap can form after
		// the loop exits. In quorum mode the moving target is the commit
		// LSN, for the same reason.
		if applied >= log.deliverable() {
			break
		}
		// The head moved while we streamed (foreground writes); go again
		// from where the replica now is.
	}

	// The closing heartbeat — records or not, so a write-quiet fleet
	// settles too: whatever the replica applied and has not folded in yet
	// (replayed just now, or before a heartbeat it missed) becomes
	// queryable before it serves a read.
	if _, err := c.Invalidate(ctx, nil, false); err != nil {
		return err
	}
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

// Flush synchronously sends the owed compaction heartbeat — the fleet
// equivalent of social.Service.Flush.
func (f *Frontend) Flush() error {
	f.bcast.Flush(context.Background())
	return nil
}

// ReplogPage is server.Frontend's replication-log surface: GET
// /v2/replog pages through the replication log, so operators (and
// external tooling) can inspect exactly the stream replicas catch up
// from. Under a quorum that is the COMMITTED prefix only: the
// uncommitted suffix may be disowned by a leader change, and external
// auditors comparing HA peers' logs must see streams that can only
// agree.
func (f *Frontend) ReplogPage(from uint64, max int) (server.ReplogPage, error) {
	log := f.attached()
	if log == nil {
		return server.ReplogPage{}, server.ErrNoReplog
	}
	page := server.ReplogPage{From: from}
	head, err := log.ReadFrom(from, func(rec wal.Record) error {
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

// errPageFull halts a ReplogPage read once max records are collected.
var errPageFull = errors.New("fleet: replog page full")

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
	if log := f.attached(); log != nil {
		// Replica lag is measured against the deliverable bound — the
		// only part of the log replicas are ever streamed.
		bound := log.deliverable()
		for i := range st.Replicas {
			if bound > st.Replicas[i].AppliedLSN {
				st.Replicas[i].ReplogLag = bound - st.Replicas[i].AppliedLSN
			}
		}
		rs := log.stats()
		rs.MinAppliedLSN = f.pool.minApplied()
		st.Replog = &rs
	}
	if f.qnode != nil {
		qs := f.qnode.Stats()
		st.Quorum = &qs
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
	if log := f.attached(); log != nil {
		log.Close()
	}
}

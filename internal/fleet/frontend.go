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
// attempt (its whole stream).
const DefaultCatchupTimeout = 30 * time.Second

// Frontend is the fleet's server.Backend, in the server.Frontend role:
// queries go through the Pool as their own JSON (consistent-hash
// routing, health-checked failover), and answers come back as the
// replicas wrote them; mutations are validated, LSN-stamped and
// committed to the attached quorum log (UseQuorum — one member for a
// single front-end; none attached, no writes) and acknowledged there,
// contacting no replica.
// Records reach replicas one way, a stream from each replica's cursor
// (stream), whose last apply page folds them in: the compaction
// heartbeat streams every admissible replica, and the pool's rejoin
// gate streams an ejected replica to the log's bound before readmitting
// it, so a readmitted replica never serves answers from a stale graph.
type Frontend struct {
	pool  *Pool
	bcast *Broadcaster

	// node is the attached log, published once (UseQuorum): the rejoin
	// gate may already run when it is set. Writes are accepted only
	// while it leads — always, with one member; an HA follower answers
	// NotLeaderError (307 on the wire) — every record is committed
	// before it is acked, and replicas are only ever streamed the
	// committed prefix.
	node atomic.Pointer[quorum.Node]

	// writeMu serializes the mutation path, so records are held in LSN
	// order. Read traffic never takes this lock.
	writeMu sync.Mutex

	// held is the log's tail as this front-end committed it since a
	// heartbeat last settled it: LSNs heldBase+1 … heldBase+len. A
	// replica at or past heldBase is streamed from here, one behind it
	// from the log — which wal reads by rescanning a segment from its
	// start, so a fleet keeping up never reads the log.
	heldMu   sync.Mutex
	heldBase uint64
	held     []social.Mutation

	// logReads counts stream's reads of the log: a fleet keeping up
	// reads none.
	logReads atomic.Int64

	// MutationTimeout bounds the quorum majority acknowledgement of one
	// write and the Users fan-out.
	MutationTimeout time.Duration
	// CatchupTimeout bounds one replica's whole catch-up attempt.
	CatchupTimeout time.Duration
}

// NewFrontend glues a pool and a broadcaster into a serving backend:
// the heartbeat streams the pool's members, and readmission is gated on
// catch-up from construction — a front-end never flips a replica live
// on probe successes alone.
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
	bcast.front = f
	bcast.mu.Unlock()
	pool.SetRejoinGate(f.catchUp)
	return f, nil
}

// errNoLog refuses writes and readmissions on a front-end no log has
// been attached to yet.
var errNoLog = unavailablef("no replication log attached (UseQuorum)")

// UseQuorum attaches the front-end's log, once, before serving traffic:
// a one-member node for a single front-end, or this front-end's member
// of a 2–3 node HA quorum, which accepts writes only while it leads.
// The log pins its truncation at the fleet's minimum applied LSN. It may
// hold history from an earlier run: the heartbeat owes the replicas
// behind its committed prefix (all of them, for fresh in-memory
// replicas) a stream to it. Attach before Start, or (a one-member node)
// after it.
func (f *Frontend) UseQuorum(n *quorum.Node) error {
	if !f.node.CompareAndSwap(nil, n) {
		return errors.New("fleet: a replication log is already attached")
	}
	n.PinLog(f.pool.minApplied)
	f.owe(n.CommitLSN())
	// On a takeover, once the term record commits — and the inherited
	// prefix beneath it — every replica is owed a stream through it.
	// Writes are not held back meanwhile: they commit behind it anyway.
	n.OnRoleChange(func(leader bool, term uint64) {
		head := n.Head()
		for leader && n.CommitLSN() < head {
			leader = n.IsLeader() && n.Term() == term
			time.Sleep(10 * time.Millisecond)
		}
		if leader {
			f.owe(head)
		}
	})
	return nil
}

// owe makes every replica owed the log through lsn, unless the held
// tail already reaches past it: the tail restarts at lsn — a replica
// behind it is streamed from the log — and a heartbeat is scheduled.
func (f *Frontend) owe(lsn uint64) {
	f.heldMu.Lock()
	owed := lsn > f.heldBase+uint64(len(f.held))
	if owed {
		f.heldBase, f.held = lsn, nil
	}
	f.heldMu.Unlock()
	if owed {
		f.bcast.NoteWrite(false)
	}
}

// hold appends one committed record to the held tail. A record that
// does not extend it (the first after a takeover) restarts it: the
// replicas behind it are streamed from the log.
func (f *Frontend) hold(m social.Mutation) {
	f.heldMu.Lock()
	if m.LSN != f.heldBase+uint64(len(f.held))+1 {
		f.heldBase, f.held = m.LSN-1, nil
	}
	f.held = append(f.held, m)
	f.heldMu.Unlock()
}

// heldEnd is the LSN of the last held record — every record acked so
// far, and every record owed since the last settle, is at or below it.
func (f *Frontend) heldEnd() uint64 {
	f.heldMu.Lock()
	defer f.heldMu.Unlock()
	return f.heldBase + uint64(len(f.held))
}

// heldAfter returns the held records past cursor, or behind = true when
// cursor is below the held tail and only the log has what follows it.
func (f *Frontend) heldAfter(cursor uint64) (recs []social.Mutation, behind bool) {
	f.heldMu.Lock()
	defer f.heldMu.Unlock()
	if cursor < f.heldBase {
		return nil, true
	}
	// Held records are never written again (settle reslices, hold only
	// appends), so the caller may read them outside the lock.
	n := uint64(len(f.held))
	return f.held[min(cursor-f.heldBase, n):n:n], false
}

// settle drops the held records through lsn once a heartbeat has
// streamed them: every live replica holds them now, and any other
// replica catches up from the log.
func (f *Frontend) settle(lsn uint64) {
	f.heldMu.Lock()
	if lsn > f.heldBase {
		n := min(lsn-f.heldBase, uint64(len(f.held)))
		f.heldBase, f.held = f.heldBase+n, f.held[n:]
	}
	f.heldMu.Unlock()
}

var (
	_ search.Searcher = (*Frontend)(nil)
	_ server.Frontend = (*Frontend)(nil)
)

// Do is server.Backend's query surface: SearchBytes, its answer
// decoded.
func (f *Frontend) Do(ctx context.Context, req search.Request) (search.Response, error) {
	return answerQuery(req, func(body []byte) ([]byte, error) { return f.SearchBytes(ctx, req, body, nil) })
}

// DoBatch is Do for a batch, over SearchBatchBytes.
func (f *Frontend) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	return answerBatch(reqs, func(queries []string, entries [][]byte) []search.BatchResult {
		return f.SearchBatchBytes(ctx, reqs, queries, entries)
	})
}

// SearchBytes is server.Frontend's search path for one query: body, the
// query's own JSON, goes to the seeker's replica (Pool.walk, failover
// included), and its answer is appended to dst as it came.
func (f *Frontend) SearchBytes(ctx context.Context, req search.Request, body, dst []byte) ([]byte, error) {
	return f.pool.walk(ctx, req.Seeker, body, dst)
}

// SearchBatchBytes is server.Frontend's search path for a batch: each
// replica gets its part as the queries' own JSON, and its entries come
// back verbatim (Pool.fanOut, Client.forwardBatch).
func (f *Frontend) SearchBatchBytes(ctx context.Context, reqs []search.Request, queries []string, entries [][]byte) []search.BatchResult {
	return f.pool.fanOut(ctx, reqs, queries, entries)
}

// deliver hands one page of LSN-consecutive log records (a zero Kind,
// a quorum leadership record, is a skip) to one replica over POST
// /v2/apply and returns the cursor it acknowledged. A record the
// replica rejects deterministically still advances its cursor — every
// replica skips it identically — so it counts as delivered. With fold
// set the replica folds what it applied into its queryable snapshot
// before it answers. Its one caller is stream.
func deliver(ctx context.Context, c *Client, page []social.Mutation, fold bool) (uint64, error) {
	var out server.AppliedResponse
	err := c.postJSON(ctx, "/v2/apply", server.ApplyRequest{Records: page, Fold: fold}, &out)
	return out.AppliedLSN, err
}

// stream is the one way records reach a replica: it sends replica i,
// in apply pages of up to server.MaxReplogPageRecords, the records past
// its tracked cursor — the held ones when it has reached the held tail,
// else the log's — and returns how many it sent. The last page asks the
// replica to fold, so no record the stream carried is left unfolded
// when it returns; pages cut earlier at the record or body bound do
// not, so a stream folds once. The log is read past
// the tail only when the tail falls short of upto (a record
// mid-append). The heartbeat, the rejoin gate, JoinReplica and a
// takeover all stream this way, concurrently when they race: a replica
// dedups records at or below its cursor, and a page never starts past
// the tracked cursor, which never runs ahead of the replica's own.
//
// A page fails — the error is returned — when the replica refuses it,
// acknowledges less than all of it, or answers with a cursor beyond
// anything the log issued (checkEpoch).
func (f *Frontend) stream(ctx context.Context, log *quorum.Node, i int, upto uint64) (int, error) {
	st, c := f.pool.state(i), f.pool.Client(i)
	cursor := st.applied()
	if err := checkEpoch(cursor, log.Head()); err != nil || cursor >= upto {
		return 0, err
	}
	sent, size := 0, 0
	var page []social.Mutation
	send := func(fold bool) error {
		last := page[len(page)-1].LSN
		switch ack, err := deliver(ctx, c, page, fold); {
		case err != nil:
			return err
		case ack < last:
			return fmt.Errorf("fleet: %s acknowledged lsn %d of a page through lsn %d", c.URL(), ack, last)
		case ack > log.Head():
			return checkEpoch(ack, log.Head())
		default:
			st.noteApplied(ack)
		}
		sent += len(page)
		page, size = page[:0], 0
		return nil
	}
	add := func(m social.Mutation) error {
		// A page stays within the record and body bounds of one request;
		// a record's bytes are counted as if every name byte were escaped
		// (\u00XX).
		bytes := 96 + 6*(len(m.User)+len(m.Friend)+len(m.Item)+len(m.Tag))
		if len(page) == server.MaxReplogPageRecords || len(page) > 0 && size+bytes > server.MaxBodyBytes {
			if err := send(false); err != nil {
				return err
			}
		}
		page, size = append(page, m), size+bytes
		return nil
	}

	recs, behind := f.heldAfter(cursor)
	if behind || len(recs) == 0 {
		f.logReads.Add(1)
		if _, err := log.ReadCommitted(cursor+1, func(rec wal.Record) error {
			m, err := durable.DecodeMutation(rec)
			if err != nil {
				return fmt.Errorf("fleet: replog lsn %d: %w", rec.LSN, err)
			}
			m.LSN = rec.LSN
			return add(m)
		}); err != nil {
			return sent, err
		}
	}
	for _, m := range recs {
		if err := add(m); err != nil {
			return sent, err
		}
	}
	if len(page) > 0 {
		return sent, send(true)
	}
	return sent, nil
}

// beat is one heartbeat's work at replica i: on the node that streams,
// the records through upto, the last page folding them in — one
// request for up to server.MaxReplogPageRecords records, none for a
// replica already there. A failed page is returned, and ejects a live
// replica at once: it has provably missed a record or its fold, and
// catch-up repairs it. A replica whose rejoin gate runs stays
// admissible, and the heartbeat is owed again (see flushOnce).
func (f *Frontend) beat(ctx context.Context, i int, upto uint64) error {
	log := f.node.Load()
	if log == nil || !log.IsLeader() {
		return nil
	}
	_, err := f.stream(ctx, log, i, upto)
	if st := f.pool.state(i); err != nil && (st.isLive() || !st.admissible()) {
		st.eject(err)
	}
	return err
}

// Befriend validates and commits the friendship mutation; the next
// compaction heartbeat delivers it and makes it queryable fleet-wide.
func (f *Frontend) Befriend(a, b string, weight float64) error {
	return f.Mutate(context.Background(), social.Mutation{Kind: social.KindBefriend, User: a, Friend: b, Weight: weight})
}

// Tag is Befriend for a tagging mutation.
func (f *Frontend) Tag(user, item, tag string) error {
	return f.Mutate(context.Background(), social.Mutation{Kind: social.KindTag, User: user, Item: item, Tag: tag})
}

// Mutate is the front-end's one mutation path (server.Frontend's write
// surface, carrying the request context's trace): validate, check
// leadership and that some replica is live, commit to the log, hold the
// record for the heartbeat, ack. m.LSN is the log's to assign. The ack
// means committed: the write is durable and reaches every replica from
// the log, and a replica failure can no longer fail it. Cancellation is
// stripped up front: a client hang-up must not cut a quorum commit wait
// short after the record was appended.
func (f *Frontend) Mutate(ctx context.Context, m social.Mutation) error {
	ctx = context.WithoutCancel(ctx)
	log := f.node.Load()
	if log == nil {
		return errNoLog
	}
	f.writeMu.Lock()
	defer f.writeMu.Unlock()
	// The record is committed before any replica sees it, so anything a
	// replica would deterministically reject must be caught first — the
	// log must never grow a record the fleet cannot apply. The rule is
	// the replicas' own.
	if err := m.Validate(); err != nil {
		return err
	}
	rec, payload, err := durable.EncodeMutation(m)
	if err != nil {
		return err
	}
	if !log.IsLeader() {
		return log.NotLeader()
	}
	if !f.pool.anyLive() {
		return unavailablef("no live replica to accept the write")
	}
	if m.LSN, err = f.commit(ctx, log, rec, payload); err != nil {
		return err
	}
	f.hold(m)
	f.bcast.NoteWrite(m.Kind == social.KindBefriend)
	return nil
}

// commit appends one record to the log and waits for the majority ack
// (none, on a one-member node). Only after it returns does the record
// exist for the fleet — streaming an uncommitted record could surface a
// write a new leader later disowns. The caller's ctx carries trace
// values only (cancellation already stripped), so the append runs under
// its own timeout.
func (f *Frontend) commit(ctx context.Context, log *quorum.Node, t wal.Type, payload []byte) (uint64, error) {
	ctx, sp := obs.StartSpan(ctx, "quorum.commit")
	defer sp.End()
	ctx, cancel := context.WithTimeout(ctx, f.MutationTimeout)
	defer cancel()
	lsn, err := log.Append(ctx, t, payload)
	if err != nil {
		var nle *quorum.NotLeaderError
		if errors.As(err, &nle) {
			return 0, err
		}
		return 0, unavailablef("quorum append: %v", err)
	}
	sp.SetInt("lsn", int64(lsn))
	sp.SetInt("term", int64(log.Term()))
	return lsn, nil
}

// probeCursor asks replica i itself where it is and makes that the
// tracked cursor. The replica's own cursor is authoritative — a
// restarted replica is back at zero no matter what our ack tracking
// remembers — so the tracked value is overwritten, not maxed: the
// truncation barrier must observe the reset. A cursor from another
// replication epoch is refused (checkEpoch).
func (f *Frontend) probeCursor(ctx context.Context, log *quorum.Node, i int) (uint64, error) {
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

// catchUp is the pool's rejoin gate: stream replica i from its own
// cursor to the log's deliverable bound. The stream's last page folds
// the caught-up records in — dropping, by the friendships pending in
// the replica's own overlay, exactly the horizons they could affect.
// N missed records cost ⌈N/1024⌉ requests, a replica already at the
// bound none: every stream that applied a record to it folded it (a
// journaled replica restarted from its journal folds on its first
// read). Runs concurrently with
// writes and heartbeats; the loop re-reads the bound until the replica
// has it.
func (f *Frontend) catchUp(i int) error {
	log := f.node.Load()
	if log == nil {
		return errNoLog
	}
	ctx, cancel := context.WithTimeout(context.Background(), f.CatchupTimeout)
	defer cancel()
	applied, err := f.probeCursor(ctx, log, i)
	if err != nil {
		return err
	}

	if !log.IsLeader() {
		// Follower gate: streaming records to replicas is the leader's
		// job (one writer, one delivery order). This follower only
		// verifies the replica has reached the committed prefix as this
		// node knows it before letting it back into the read ring; until
		// then the gate fails and the next probe sweep retries.
		if commit := log.CommitLSN(); applied < commit {
			return unavailablef("replica cursor %d behind quorum commit %d (the leader streams catch-up)", applied, commit)
		}
		return nil
	}

	// Exit only against the CURRENT bound, never one an earlier pass
	// captured. Until this gate finishes the replica stays admissible, so
	// every heartbeat streams it too; a record committed after the exit
	// check is held, noted, and streamed by the next heartbeat.
	st, replayed := f.pool.state(i), 0
	for upto := log.CommitLSN(); st.applied() < upto; upto = log.CommitLSN() {
		n, err := f.stream(ctx, log, i, upto)
		replayed += n
		if err != nil {
			return err
		}
	}

	f.pool.Client(i).Counters().Catchup(replayed)
	return nil
}

// Users asks the first live replica (replicas agree on the user set, up
// to the records the next heartbeat streams).
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
// agree. A from below the retained log start, a prefix the truncation
// barrier reclaimed, gets the page from the first retained record, and
// the page's From says where that is.
func (f *Frontend) ReplogPage(from uint64, max int) (server.ReplogPage, error) {
	log := f.node.Load()
	if log == nil {
		return server.ReplogPage{}, server.ErrNoReplog
	}
	for {
		page := server.ReplogPage{From: from}
		head, err := log.ReadCommitted(from, func(rec wal.Record) error {
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
		if errors.Is(err, wal.ErrTruncated) {
			from = log.LogStart()
			continue
		}
		if err != nil && !errors.Is(err, errPageFull) {
			return server.ReplogPage{}, err
		}
		page.Head = head
		return page, nil
	}
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
	if log := f.node.Load(); log != nil {
		// Replica lag is measured against the commit LSN — the only part
		// of the log replicas are ever streamed.
		qs := log.Stats()
		for i := range st.Replicas {
			if qs.CommitLSN > st.Replicas[i].AppliedLSN {
				st.Replicas[i].ReplogLag = qs.CommitLSN - st.Replicas[i].AppliedLSN
			}
		}
		st.Replog = &ReplogStats{Head: qs.Head, Barrier: log.Barrier(), Segments: qs.Segments, MinAppliedLSN: f.pool.minApplied()}
		if qs.Members > 1 {
			st.Quorum = &qs
		}
	}
	return st
}

// QuorumRole is server.Frontend's role surface for HA front-ends: the
// node's role, believed leader URL, and term ride on /healthz headers.
// Without peers the role is empty and the server omits the headers.
func (f *Frontend) QuorumRole() (role, leaderURL string, term uint64) {
	log := f.node.Load()
	if log == nil || log.Members() == 1 {
		return "", "", 0
	}
	_, leaderURL = log.Leader()
	role = "follower"
	if log.IsLeader() {
		role = "leader"
	}
	return role, leaderURL, log.Term()
}

// Close stops the pool's prober, drains the broadcaster and closes the
// log.
func (f *Frontend) Close() {
	f.pool.Close()
	f.bcast.Close()
	if log := f.node.Load(); log != nil {
		log.Close()
	}
}

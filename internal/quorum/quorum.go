// Package quorum replicates the fleet's replication log across a small
// set of front-ends with leader election and majority-acknowledged
// appends, removing the single-front-end write SPOF left by the PR 5
// design.
//
// The protocol is a deliberately small Raft subset over the existing
// wal.Log framing: term-stamped leadership (RecTerm records mark
// leadership changes in the log itself), randomized election timeouts,
// a log-up-to-dateness vote rule, an AppendEntries-style consistency
// check with conflict-suffix truncation, and the current-term commit
// rule. A mutation is acknowledged to the client only once its record
// is durable on a majority of front-ends; the committed prefix is
// therefore stable across any single-node failure, and an elected
// successor resumes exactly from it — no acknowledged LSN is ever
// lost or reordered.
//
// A node without peers is a one-member quorum, the single front-end's
// log: it leads from Start at its persisted term (0), writes no RecTerm
// and commits as it appends, so its log stays a PR 5 replication log.
//
// What it is not: there is no snapshot/install-log path (the leader
// truncates below its slowest follower only; followers never
// truncate), no membership
// change protocol (the peer set is fixed at process start), and no
// read leases (reads are served by every front-end from the replica
// ring, which PR 5's invalidation protocol already keeps sound).
package quorum

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Role is a node's current position in the election cycle.
type Role int

const (
	Follower Role = iota
	Candidate
	Leader
)

func (r Role) String() string {
	switch r {
	case Leader:
		return "leader"
	case Candidate:
		return "candidate"
	default:
		return "follower"
	}
}

// NotLeaderError reports that a write was addressed to a non-leader
// node. When the leader is known its id/URL are carried so the server
// layer can answer with a 307 redirect and clients can re-aim.
type NotLeaderError struct {
	LeaderID  string
	LeaderURL string
}

func (e *NotLeaderError) Error() string {
	if e.LeaderURL == "" {
		return "quorum: not the leader (no leader known)"
	}
	return fmt.Sprintf("quorum: not the leader (leader is %s at %s)", e.LeaderID, e.LeaderURL)
}

// ErrShutdown is returned by Append once the node has been closed.
var ErrShutdown = errors.New("quorum: node closed")

// Config wires a Node into its cluster.
type Config struct {
	// ID is this node's stable identity; it must be a key of Peers.
	ID string
	// Peers maps node id → base URL for every cluster member,
	// including this node. The set is fixed for the process lifetime.
	// Empty: a one-member node, whose only member is itself.
	Peers map[string]string
	// Dir holds the consensus log segments and the term/vote state
	// file. Promoting a PR 5 single-front-end replication log is
	// supported: point Dir at its directory and the existing records
	// become the term-0 committed prefix.
	Dir string

	// ElectionTimeout is the base follower patience; each wait is
	// randomized in [ElectionTimeout, 2·ElectionTimeout). Default 300ms.
	ElectionTimeout time.Duration
	// Heartbeat is the leader's idle append cadence. Default 60ms.
	Heartbeat time.Duration
	// RPCTimeout bounds a single vote or append RPC. Default 1s.
	RPCTimeout time.Duration

	// Logf, when set, receives one-line protocol events (elections,
	// step-downs, conflict truncations).
	Logf func(format string, args ...any)
}

func (c *Config) fill() error {
	if len(c.Peers) == 0 {
		c.Peers = map[string]string{c.ID: ""}
	}
	if _, ok := c.Peers[c.ID]; !ok {
		return fmt.Errorf("quorum: own id %q missing from peer set", c.ID)
	}
	if c.Dir == "" {
		return errors.New("quorum: config needs a log Dir")
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 300 * time.Millisecond
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 60 * time.Millisecond
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// peer is the leader's view of one other cluster member.
type peer struct {
	id  string
	url string

	sendMu sync.Mutex // serializes append sessions to this peer

	mu    sync.Mutex
	next  uint64 // next LSN to send
	match uint64 // highest LSN known replicated on the peer

	notify chan struct{}
}

func (p *peer) poke() {
	select {
	case p.notify <- struct{}{}:
	default:
	}
}

// Node is one quorum member. Open it, mount Handler() on the node's
// HTTP server, then Start() the timers.
type Node struct {
	cfg  Config
	log  *qlog
	rand *rand.Rand

	mu         sync.Mutex
	term       uint64
	votedFor   string
	role       Role
	leaderID   string
	leaderURL  string
	commit     uint64
	termRecLSN uint64 // LSN of our own term's RecTerm record while leader
	lastHeard  time.Time
	closed     bool

	commitCond *sync.Cond // signals commit advance, step-down, close

	// pin is PinLog's; base the term index entry last persisted for a
	// truncated prefix.
	pin  func() uint64
	base termSpan

	// traced maps an in-flight traced Append's LSN to its trace
	// context while the leader awaits commit, so the detached per-peer
	// replication pushes can tag that entry on the wire and merge the
	// followers' spans back into the right trace. Guarded by mu;
	// entries are removed when Append returns, so the map stays
	// bounded by the number of concurrently blocked traced appends.
	traced map[uint64]tracedAppend

	peers map[string]*peer // every member except self

	roleMu    sync.Mutex
	roleHooks []func(leader bool, term uint64)

	stop chan struct{}
	wg   sync.WaitGroup
}

// Open loads (or creates) the consensus log and persisted term/vote
// state. The node is passive until Start.
func Open(cfg Config) (*Node, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	ps, err := loadState(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if len(cfg.Peers) == 1 && ps.Term > 0 {
		return nil, fmt.Errorf("quorum: %s served in a quorum (term %d); a one-member node reopens only a term-0 log", cfg.Dir, ps.Term)
	}
	base := termSpan{start: ps.BaseLSN, term: ps.BaseTerm}
	log, err := openQLog(cfg.Dir, base)
	if err != nil {
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		log:       log,
		rand:      rand.New(rand.NewSource(time.Now().UnixNano() ^ int64(len(cfg.ID)))),
		term:      ps.Term,
		votedFor:  ps.VotedFor,
		role:      Follower,
		lastHeard: time.Now(),
		peers:     make(map[string]*peer),
		traced:    make(map[uint64]tracedAppend),
		stop:      make(chan struct{}),
		base:      base,
	}
	n.commitCond = sync.NewCond(&n.mu)
	for id, url := range cfg.Peers {
		if id == n.cfg.ID {
			continue
		}
		n.peers[id] = &peer{id: id, url: url, notify: make(chan struct{}, 1)}
	}
	return n, nil
}

// Start launches the election timer and, per peer, a replication
// loop. Call after the node's HTTP listener is accepting, so peers'
// RPCs can land. A one-member node is its own majority: it takes
// office before Start returns, at its persisted term, and starts no
// goroutine.
func (n *Node) Start() {
	if len(n.peers) == 0 {
		n.mu.Lock()
		n.role, n.leaderID, n.leaderURL = Leader, n.cfg.ID, n.cfg.Peers[n.cfg.ID]
		n.commit = n.log.headLSN()
		term := n.term
		n.mu.Unlock()
		n.fireRoleChange(true, term)
		return
	}
	n.wg.Add(1)
	go n.run()
	for _, p := range n.peers {
		n.wg.Add(1)
		go n.replicate(p)
	}
}

// Close stops timers and replication and closes the log. In-flight
// Append calls fail with ErrShutdown.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	close(n.stop)
	n.commitCond.Broadcast()
	n.mu.Unlock()
	n.wg.Wait()
	return n.log.close()
}

// OnRoleChange registers fn to run (in its own goroutine) whenever
// this node wins or loses leadership. Registration must happen before
// Start.
func (n *Node) OnRoleChange(fn func(leader bool, term uint64)) {
	n.roleMu.Lock()
	defer n.roleMu.Unlock()
	n.roleHooks = append(n.roleHooks, fn)
}

func (n *Node) fireRoleChange(leader bool, term uint64) {
	n.roleMu.Lock()
	hooks := append([]func(bool, uint64){}, n.roleHooks...)
	n.roleMu.Unlock()
	for _, fn := range hooks {
		go fn(leader, term)
	}
}

// IsLeader reports whether this node currently holds leadership.
func (n *Node) IsLeader() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == Leader
}

// Leader returns the believed current leader's id and URL ("" when
// unknown, e.g. mid-election).
func (n *Node) Leader() (id, url string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leaderID, n.leaderURL
}

// Term returns the node's current term.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// CommitLSN returns the highest majority-acknowledged LSN.
func (n *Node) CommitLSN() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.commit
}

// Head returns the local log head, which may run ahead of CommitLSN.
func (n *Node) Head() uint64 { return n.log.headLSN() }

// Members is the size of the peer set, this node included.
func (n *Node) Members() int { return len(n.cfg.Peers) }

// LogStart is the LSN of the first record the log retains.
func (n *Node) LogStart() uint64 { return n.log.wal.Start(0) }

// Barrier is the lowest LSN the last truncation sweep kept (0 before
// the first): every record from it on is still in the log.
func (n *Node) Barrier() uint64 { return n.log.wal.Barrier() }

// PinLog registers pin, the highest LSN every consumer of the committed
// log outside the quorum has applied — a fleet's minimum replica
// cursor. Until it is set the log is never truncated.
func (n *Node) PinLog(pin func() uint64) {
	n.mu.Lock()
	n.pin = pin
	n.mu.Unlock()
}

// NotLeader builds the redirect error for the currently believed
// leader; used by write paths outside this package.
func (n *Node) NotLeader() error {
	id, url := n.Leader()
	return &NotLeaderError{LeaderID: id, LeaderURL: url}
}

// ReadCommitted streams committed records with LSN ≥ from into fn and
// returns the commit LSN the read was bounded by. Uncommitted suffix
// records are never surfaced — consumers (replica catch-up, log
// audits) only ever observe the stable prefix. A from below LogStart
// fails with wal.ErrTruncated.
func (n *Node) ReadCommitted(from uint64, fn func(rec wal.Record) error) (uint64, error) {
	commit := n.CommitLSN()
	if from > commit {
		return commit, nil
	}
	err := n.log.readRange(from, commit, func(rec wal.Record, _ uint64) error { return fn(rec) })
	return commit, err
}

// Append, on the leader, appends one record under the current term,
// replicates it, and returns once a majority has acknowledged it
// (commit ≥ its LSN). On any other node it fails with NotLeaderError.
// An error after the local append (timeout, leadership lost) leaves
// the record's fate indeterminate: a successor may still commit it.
func (n *Node) Append(ctx context.Context, t wal.Type, data []byte) (uint64, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return 0, ErrShutdown
	}
	if n.role != Leader {
		id, url := n.leaderID, n.leaderURL
		n.mu.Unlock()
		return 0, &NotLeaderError{LeaderID: id, LeaderURL: url}
	}
	term := n.term
	lsn, err := n.log.append(term, t, data)
	if err != nil {
		n.mu.Unlock()
		return 0, fmt.Errorf("quorum: local append: %w", err)
	}
	// A traced mutation's replication happens on detached per-peer
	// goroutines; park its trace context keyed by LSN so pushPeer can
	// carry it on the wire and merge follower spans back. Untraced
	// appends (the common case) and a one-member node skip the map.
	if tp := obs.Traceparent(ctx); tp != "" && len(n.peers) > 0 {
		n.traced[lsn] = tracedAppend{tp: tp, tr: obs.FromContext(ctx)}
		defer func() {
			n.mu.Lock()
			delete(n.traced, lsn)
			n.mu.Unlock()
		}()
	}
	n.maybeCommitLocked()
	n.mu.Unlock()
	for _, p := range n.peers {
		p.poke()
	}
	if err := n.waitCommitted(ctx, lsn, term); err != nil {
		return lsn, err
	}
	if lsn%truncateEvery == 0 {
		n.truncate()
	}
	return lsn, nil
}

// truncateEvery is how many appends ride between truncation sweeps.
const truncateEvery = 1024

// truncate is the leader's sweep: it reclaims the sealed segments
// through the lower of the pin and the slowest follower's match index.
// Errors are advisory: the next sweep retries.
func (n *Node) truncate() {
	n.mu.Lock()
	pin := n.pin
	n.mu.Unlock()
	if pin == nil {
		return
	}
	through := pin() // outside n.mu: the pin takes its owner's locks
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != Leader {
		return
	}
	through = min(through, n.commit)
	for _, p := range n.peers {
		p.mu.Lock()
		through = min(through, p.match)
		p.mu.Unlock()
	}
	// The RecTerm labelling the oldest kept records may go: persist the
	// first kept record's term (0 is the term index's default).
	first := n.log.wal.Start(through)
	if t := n.log.termOf(first); t > 0 && first > n.base.start {
		n.base = termSpan{start: first, term: t}
		if err := n.saveStateLocked(); err != nil {
			n.cfg.Logf("quorum[%s]: persisting truncation base: %v", n.cfg.ID, err)
			return
		}
	}
	n.log.wal.SetBarrier(through + 1)
	_ = n.log.wal.TruncateThrough(through)
}

// tracedAppend is one blocked traced Append: the wire form of its
// trace position plus the trace the followers' spans merge back into.
// The *Trace (not the context) is retained because a slow peer's push
// can outlive the request — Trace.Merge stays safe after finish, while
// the context's span is recycled.
type tracedAppend struct {
	tp string
	tr *obs.Trace
}

// waitCommitted blocks until commit ≥ lsn while we remain leader of
// term, or fails on ctx expiry / step-down / close. A record already
// committed — always, on a one-member node — returns at once.
func (n *Node) waitCommitted(ctx context.Context, lsn, term uint64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.commit >= lsn {
		return nil
	}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			n.commitCond.Broadcast()
		case <-done:
		}
	}()
	for {
		if n.commit >= lsn {
			return nil
		}
		if n.closed {
			return ErrShutdown
		}
		if n.role != Leader || n.term != term {
			return fmt.Errorf("quorum: leadership lost before lsn %d committed (fate indeterminate)", lsn)
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("quorum: waiting for lsn %d to commit: %w", lsn, err)
		}
		n.commitCond.Wait()
	}
}

// run is the timer loop: election patience as follower/candidate,
// heartbeat cadence as leader.
func (n *Node) run() {
	defer n.wg.Done()
	tick := n.cfg.Heartbeat / 2
	if tick <= 0 {
		tick = 10 * time.Millisecond
	}
	timeout := n.randTimeout()
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-ticker.C:
		}
		n.mu.Lock()
		role := n.role
		idle := time.Since(n.lastHeard)
		n.mu.Unlock()
		switch role {
		case Leader:
			for _, p := range n.peers {
				p.poke()
			}
		default:
			if idle >= timeout {
				timeout = n.randTimeout()
				n.campaign()
			}
		}
	}
}

func (n *Node) randTimeout() time.Duration {
	base := n.cfg.ElectionTimeout
	return base + time.Duration(n.rand.Int63n(int64(base)))
}

// campaign runs one election round: bump term, vote for self, solicit
// the cluster, and take leadership on a majority.
func (n *Node) campaign() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.role = Candidate
	n.term++
	n.votedFor = n.cfg.ID
	n.leaderID, n.leaderURL = "", ""
	n.lastHeard = time.Now()
	term := n.term
	if err := n.saveStateLocked(); err != nil {
		n.cfg.Logf("quorum[%s]: persisting candidate state: %v", n.cfg.ID, err)
		n.role = Follower
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()

	lastLSN := n.log.headLSN()
	lastTerm := n.log.lastTerm()
	n.cfg.Logf("quorum[%s]: campaigning for term %d (log %d@t%d)", n.cfg.ID, term, lastLSN, lastTerm)

	votes := 1 // self
	needed := n.majority()
	if votes >= needed {
		n.takeOffice(term)
		return
	}
	results := make(chan voteResponse, len(n.peers))
	for _, p := range n.peers {
		go func(p *peer) {
			ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPCTimeout)
			defer cancel()
			resp, err := sendVote(ctx, p.url, voteRequest{
				Term: term, Candidate: n.cfg.ID, LastLSN: lastLSN, LastTerm: lastTerm,
			})
			if err != nil {
				resp = voteResponse{}
			}
			results <- resp
		}(p)
	}
	deadline := time.After(n.cfg.ElectionTimeout)
	for range n.peers {
		select {
		case resp := <-results:
			if resp.Term > term {
				n.stepDown(resp.Term, "", "")
				return
			}
			if resp.Granted {
				votes++
				if votes >= needed {
					n.takeOffice(term)
					return
				}
			}
		case <-deadline:
			return // let the timer fire a fresh round
		case <-n.stop:
			return
		}
	}
}

func (n *Node) majority() int { return len(n.cfg.Peers)/2 + 1 }

// takeOffice installs this node as leader of term and stamps the log
// with the term record. Committing that record (which happens as soon
// as a majority matches it) commits the entire prefix beneath it.
func (n *Node) takeOffice(term uint64) {
	n.mu.Lock()
	if n.closed || n.term != term || n.role != Candidate {
		n.mu.Unlock()
		return
	}
	n.role = Leader
	n.leaderID = n.cfg.ID
	n.leaderURL = n.cfg.Peers[n.cfg.ID]
	lsn, err := n.log.append(term, durable.RecTerm, durable.EncodeTerm(term, n.cfg.ID))
	if err != nil {
		n.cfg.Logf("quorum[%s]: term record append failed, abdicating: %v", n.cfg.ID, err)
		n.role = Follower
		n.mu.Unlock()
		return
	}
	n.termRecLSN = lsn
	head := n.log.headLSN()
	for _, p := range n.peers {
		p.mu.Lock()
		p.next = head + 1
		p.match = 0
		p.mu.Unlock()
	}
	n.maybeCommitLocked()
	n.mu.Unlock()
	n.cfg.Logf("quorum[%s]: leader of term %d (term record at lsn %d)", n.cfg.ID, term, lsn)
	for _, p := range n.peers {
		p.poke()
	}
	n.fireRoleChange(true, term)
}

// stepDown demotes to follower of newTerm (recording the new leader if
// known). Any blocked Append calls are woken to fail.
func (n *Node) stepDown(newTerm uint64, leaderID, leaderURL string) {
	n.mu.Lock()
	if n.closed || newTerm < n.term {
		n.mu.Unlock()
		return
	}
	wasLeader := n.role == Leader
	if newTerm > n.term {
		n.term = newTerm
		n.votedFor = ""
		if err := n.saveStateLocked(); err != nil {
			n.cfg.Logf("quorum[%s]: persisting step-down state: %v", n.cfg.ID, err)
		}
	}
	n.role = Follower
	if leaderID != "" {
		n.leaderID, n.leaderURL = leaderID, leaderURL
	} else if wasLeader {
		n.leaderID, n.leaderURL = "", ""
	}
	n.lastHeard = time.Now()
	term := n.term
	n.commitCond.Broadcast()
	n.mu.Unlock()
	if wasLeader {
		n.cfg.Logf("quorum[%s]: stepping down at term %d", n.cfg.ID, term)
		n.fireRoleChange(false, term)
	}
}

// replicate is the per-peer leader loop: on pokes (new appends or
// heartbeat ticks) it pushes the peer's missing suffix, walking back
// on consistency rejections.
func (n *Node) replicate(p *peer) {
	defer n.wg.Done()
	for {
		select {
		case <-n.stop:
			return
		case <-p.notify:
		}
		n.pushPeer(p)
	}
}

// pushPeer runs one append session: batches of the peer's missing
// records until it is caught up, or a single empty heartbeat when it
// already is.
func (n *Node) pushPeer(p *peer) {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	for {
		n.mu.Lock()
		if n.closed || n.role != Leader {
			n.mu.Unlock()
			return
		}
		term := n.term
		commit := n.commit
		n.mu.Unlock()
		p.mu.Lock()
		next := p.next
		p.mu.Unlock()

		head := n.log.headLSN()
		prev := next - 1
		prevTerm := n.log.termOf(prev)
		var entries []logEntry
		if next <= head {
			through := next + maxEntriesPerAppend - 1
			if through > head {
				through = head
			}
			err := n.log.readRange(next, through, func(rec wal.Record, term uint64) error {
				entries = append(entries, logEntry{
					LSN: rec.LSN, Term: term, Type: uint8(rec.Type),
					// rec.Data aliases the reader's scratch buffer;
					// copy before it is overwritten by the next frame.
					Data: append([]byte(nil), rec.Data...),
				})
				return nil
			})
			if err != nil {
				n.cfg.Logf("quorum[%s]: reading log for %s: %v", n.cfg.ID, p.id, err)
				return
			}
		}

		// Tag entries whose Append is still blocked in a traced request,
		// and remember where each one's follower spans should merge.
		var mergeInto map[uint64]*obs.Trace
		if len(entries) > 0 {
			n.mu.Lock()
			if len(n.traced) > 0 {
				for i := range entries {
					if ta, ok := n.traced[entries[i].LSN]; ok {
						entries[i].Traceparent = ta.tp
						if mergeInto == nil {
							mergeInto = make(map[uint64]*obs.Trace)
						}
						mergeInto[entries[i].LSN] = ta.tr
					}
				}
			}
			n.mu.Unlock()
		}

		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.RPCTimeout)
		resp, err := sendAppend(ctx, p.url, appendRequest{
			Term: term, LeaderID: n.cfg.ID, LeaderURL: n.cfg.Peers[n.cfg.ID],
			PrevLSN: prev, PrevTerm: prevTerm, Entries: entries, Commit: commit,
		})
		cancel()
		if err != nil {
			return // peer unreachable; next poke retries
		}
		if resp.Term > term {
			n.stepDown(resp.Term, "", "")
			return
		}
		if resp.OK {
			// Stitch the follower's replication spans into each entry's
			// originating trace. Only LSNs this push tagged are merged:
			// a response cannot inject spans into unrelated traces.
			for lsn, spans := range resp.Spans {
				if tr, ok := mergeInto[lsn]; ok {
					tr.Merge(spans)
				}
			}
			matched := prev + uint64(len(entries))
			p.mu.Lock()
			if matched > p.match {
				p.match = matched
			}
			p.next = matched + 1
			p.mu.Unlock()
			n.mu.Lock()
			n.maybeCommitLocked()
			n.mu.Unlock()
			if matched >= n.log.headLSN() {
				return // caught up
			}
			continue
		}
		// Consistency rejection: back off using the peer's head hint.
		p.mu.Lock()
		if resp.Hint < prev {
			p.next = resp.Hint + 1
		} else {
			p.next = prev
		}
		if p.next == 0 {
			p.next = 1
		}
		p.mu.Unlock()
	}
}

// maybeCommitLocked advances commit to the highest LSN replicated on a
// majority whose record belongs to the current term (the Raft commit
// rule: older-term records commit only transitively, via a
// current-term record above them — the takeOffice term record
// guarantees one exists). Callers hold n.mu.
func (n *Node) maybeCommitLocked() {
	if n.role != Leader {
		return
	}
	matches := append(make([]uint64, 0, 8), n.log.headLSN())
	for _, p := range n.peers {
		p.mu.Lock()
		matches = append(matches, p.match)
		p.mu.Unlock()
	}
	slices.Sort(matches)
	candidate := matches[len(matches)-n.majority()]
	if candidate > n.commit && n.log.termOf(candidate) == n.term {
		n.commit = candidate
		n.commitCond.Broadcast()
	}
}

// handleVote answers a peer's vote solicitation.
func (n *Node) handleVote(req voteRequest) voteResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Term > n.term {
		n.term = req.Term
		n.votedFor = ""
		if n.role == Leader {
			// Demote inline; hooks fire from the caller-side stepDown
			// path only, so just flip state and wake waiters.
			n.role = Follower
			n.leaderID, n.leaderURL = "", ""
			n.commitCond.Broadcast()
			defer n.fireRoleChange(false, req.Term)
		} else {
			n.role = Follower
		}
		if err := n.saveStateLocked(); err != nil {
			n.cfg.Logf("quorum[%s]: persisting term bump: %v", n.cfg.ID, err)
			return voteResponse{Term: n.term}
		}
	}
	if req.Term < n.term {
		return voteResponse{Term: n.term}
	}
	lastLSN := n.log.headLSN()
	lastTerm := n.log.lastTerm()
	upToDate := req.LastTerm > lastTerm || (req.LastTerm == lastTerm && req.LastLSN >= lastLSN)
	if (n.votedFor == "" || n.votedFor == req.Candidate) && upToDate {
		n.votedFor = req.Candidate
		if err := n.saveStateLocked(); err != nil {
			n.cfg.Logf("quorum[%s]: persisting vote: %v", n.cfg.ID, err)
			return voteResponse{Term: n.term}
		}
		n.lastHeard = time.Now()
		return voteResponse{Term: n.term, Granted: true}
	}
	return voteResponse{Term: n.term}
}

// handleAppend answers a leader's replication push (possibly an empty
// heartbeat): consistency-check at PrevLSN, truncate any conflicting
// suffix, append the new entries, and advance the local commit.
func (n *Node) handleAppend(req appendRequest) appendResponse {
	n.mu.Lock()
	if req.Term < n.term {
		resp := appendResponse{Term: n.term}
		n.mu.Unlock()
		return resp
	}
	wasLeader := n.role == Leader
	if req.Term > n.term {
		n.term = req.Term
		n.votedFor = ""
		if err := n.saveStateLocked(); err != nil {
			n.cfg.Logf("quorum[%s]: persisting term bump: %v", n.cfg.ID, err)
		}
	}
	n.role = Follower
	n.leaderID, n.leaderURL = req.LeaderID, req.LeaderURL
	n.lastHeard = time.Now()
	term := n.term
	if wasLeader {
		n.commitCond.Broadcast()
	}
	n.mu.Unlock()
	if wasLeader {
		n.cfg.Logf("quorum[%s]: deposed by %s at term %d", n.cfg.ID, req.LeaderID, term)
		n.fireRoleChange(false, term)
	}

	head := n.log.headLSN()
	if req.PrevLSN > head {
		return appendResponse{Term: term, Hint: head}
	}
	if got := n.log.termOf(req.PrevLSN); req.PrevLSN > 0 && got != req.PrevTerm {
		// Our copy of PrevLSN disagrees with the leader's: it is
		// uncommitted detritus from a dead term. Drop it and have the
		// leader walk back.
		n.cfg.Logf("quorum[%s]: conflict at lsn %d (have t%d, leader says t%d), truncating",
			n.cfg.ID, req.PrevLSN, got, req.PrevTerm)
		if err := n.log.truncateFrom(req.PrevLSN); err != nil {
			n.cfg.Logf("quorum[%s]: conflict truncation: %v", n.cfg.ID, err)
			return appendResponse{Term: term, Hint: 0}
		}
		return appendResponse{Term: term, Hint: req.PrevLSN - 1}
	}
	var spans map[uint64][]obs.SpanData
	for _, e := range req.Entries {
		head = n.log.headLSN()
		if e.LSN <= head {
			if n.log.termOf(e.LSN) == e.Term {
				continue // already replicated
			}
			n.cfg.Logf("quorum[%s]: conflict at lsn %d, truncating suffix", n.cfg.ID, e.LSN)
			if err := n.log.truncateFrom(e.LSN); err != nil {
				n.cfg.Logf("quorum[%s]: conflict truncation: %v", n.cfg.ID, err)
				return appendResponse{Term: term, Hint: 0}
			}
		}
		if e.LSN != n.log.headLSN()+1 {
			return appendResponse{Term: term, Hint: n.log.headLSN()}
		}
		start := time.Now()
		if _, err := n.log.append(e.Term, wal.Type(e.Type), e.Data); err != nil {
			n.cfg.Logf("quorum[%s]: follower append: %v", n.cfg.ID, err)
			return appendResponse{Term: term, Hint: n.log.headLSN()}
		}
		// A traced entry gets its durable-append leg reported back to
		// the leader, parented under the originating mutation's span.
		// Re-delivered entries (the `continue` above) emit nothing: the
		// first delivery already reported the real work.
		if e.Traceparent != "" {
			if _, parent, sampled, ok := obs.ParseTraceparent(e.Traceparent); ok && sampled {
				if spans == nil {
					spans = make(map[uint64][]obs.SpanData)
				}
				spans[e.LSN] = append(spans[e.LSN], obs.SpanData{
					SpanID:     obs.NewSpanID().String(),
					ParentID:   parent.String(),
					Name:       "quorum.follower.append",
					Node:       n.cfg.ID,
					Start:      start,
					DurationMS: float64(time.Since(start)) / float64(time.Millisecond),
					Attrs: []obs.Attr{
						{Key: "lsn", Value: strconv.FormatUint(e.LSN, 10)},
						{Key: "term", Value: strconv.FormatUint(e.Term, 10)},
					},
				})
			}
		}
	}
	// Only records we have verified against the leader may commit.
	matched := req.PrevLSN + uint64(len(req.Entries))
	limit := req.Commit
	if matched < limit {
		limit = matched
	}
	n.mu.Lock()
	if limit > n.commit {
		n.commit = limit
		n.commitCond.Broadcast()
	}
	n.mu.Unlock()
	return appendResponse{Term: term, OK: true, Match: matched, Spans: spans}
}

// PeerStats is one row of Stats.Peers.
type PeerStats struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	Match uint64 `json:"match_lsn"`
}

// Stats is the quorum block surfaced under /v1/stats.
type Stats struct {
	ID        string      `json:"id"`
	Role      string      `json:"role"`
	Term      uint64      `json:"term"`
	LeaderID  string      `json:"leader_id,omitempty"`
	LeaderURL string      `json:"leader_url,omitempty"`
	CommitLSN uint64      `json:"commit_lsn"`
	Head      uint64      `json:"head_lsn"`
	Members   int         `json:"members"`
	Segments  int         `json:"segments"`
	Peers     []PeerStats `json:"peers,omitempty"`
}

// Stats snapshots the node for observability endpoints.
func (n *Node) Stats() Stats {
	n.mu.Lock()
	st := Stats{
		ID:        n.cfg.ID,
		Role:      n.role.String(),
		Term:      n.term,
		LeaderID:  n.leaderID,
		LeaderURL: n.leaderURL,
		CommitLSN: n.commit,
		Members:   len(n.cfg.Peers),
	}
	isLeader := n.role == Leader
	n.mu.Unlock()
	st.Head = n.log.headLSN()
	st.Segments = n.log.segments()
	if isLeader {
		ids := make([]string, 0, len(n.peers))
		for id := range n.peers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			p := n.peers[id]
			p.mu.Lock()
			st.Peers = append(st.Peers, PeerStats{ID: p.id, URL: p.url, Match: p.match})
			p.mu.Unlock()
		}
	}
	return st
}

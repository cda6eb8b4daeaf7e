package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/shard"
)

// Pool defaults, substituted for zero config fields.
const (
	DefaultHealthInterval = time.Second
	DefaultFailAfter      = 3
)

const (
	// probeTimeout bounds one /healthz probe.
	probeTimeout = 2 * time.Second
	// reviveAfter is the streak of successful probes after which an
	// ejected replica is readmitted (or, with a rejoin gate, its gate
	// starts).
	reviveAfter = 2
)

// PoolConfig tunes the replica pool.
type PoolConfig struct {
	// HealthInterval is the period between /healthz sweeps
	// (0 = DefaultHealthInterval; negative disables the prober — tests
	// drive health transitions through query failures alone).
	HealthInterval time.Duration
	// FailAfter ejects a replica after this many consecutive failures —
	// probe failures and query transport failures both count
	// (0 = DefaultFailAfter).
	FailAfter int
}

// replicaState is the health bookkeeping for one replica. The mutex
// serializes the consecutive-outcome counters; the live flag is read on
// every query, so it lives behind the same lock but is cached by
// preference walks that tolerate slight staleness.
type replicaState struct {
	mu          sync.Mutex
	live        bool
	retired     bool // permanently out: no probes, routing, or records
	holdGate    bool // admitted but awaiting bootstrap: don't start the gate yet
	consecFails int
	consecOKs   int
	lastErr     string
	lastProbe   time.Time
	gate        func() // when set, readmission runs the rejoin gate instead of flipping live
	catchingUp  bool   // a rejoin gate run is in flight
	appliedLSN  uint64 // replica's replication cursor, from acks and probes
	failAfter   int
	counters    *metrics.ReplicaCounters
}

func (r *replicaState) isLive() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.live && !r.retired
}

// admissible reports whether the heartbeat should stream the replica:
// live, or mid-rejoin (a catching-up replica is reachable, and the
// cursor rule makes the heartbeat's stream racing the gate's safe — a
// record at or below the replica's cursor is a dedup no-op). A joiner
// whose gate runs is admissible the same way; retired replicas never
// are.
func (r *replicaState) admissible() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.retired && (r.live || r.catchingUp)
}

// noteApplied advances the tracked replication cursor (monotonic —
// apply acks can only move it forward).
func (r *replicaState) noteApplied(lsn uint64) {
	r.mu.Lock()
	if lsn > r.appliedLSN {
		r.appliedLSN = lsn
	}
	r.mu.Unlock()
}

// setApplied overwrites the tracked cursor with a value the replica
// just reported on a path nothing races (catch-up, snapshot bootstrap).
// NOT monotonic on purpose: a restarted replica reports 0, and the
// truncation barrier must observe the reset or it would reclaim exactly
// the records the replica now needs.
func (r *replicaState) setApplied(lsn uint64) {
	r.mu.Lock()
	r.appliedLSN = lsn
	r.mu.Unlock()
}

// applied returns the tracked cursor.
func (r *replicaState) applied() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appliedLSN
}

// probeApplied reconciles a health probe's self-reported cursor with
// the tracked one and returns the result. before is the tracked cursor
// when the probe was sent. If it has not moved since, the report stands
// even when lower — that is a restarted replica, the reset setApplied
// exists for, and the prober ejects it. If an apply ack advanced it
// while the probe was in flight, the report is the older of the two
// observations and may only raise the cursor: lowering it would show a
// caught-up replica as lagging, and eject it as restarted.
func (r *replicaState) probeApplied(before, reported uint64) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.appliedLSN == before || reported > r.appliedLSN {
		r.appliedLSN = reported
	}
	return r.appliedLSN
}

// checkEpoch refuses a replica cursor beyond anything the log ever
// issued: a replication epoch mismatch (e.g. the front-end was restarted
// with a fresh -replog-dir over running replicas). Such a replica
// answers every apply page with a dedup no-op "success" — every write
// would silently vanish. The heartbeat's stream ejects it and the rejoin
// gate refuses it, so it stays out until an operator resolves the epoch
// (restore the original log, or restart the replica clean).
func checkEpoch(cursor, head uint64) error {
	if cursor > head {
		return fmt.Errorf("fleet: replication epoch mismatch: replica cursor %d beyond log head %d", cursor, head)
	}
	return nil
}

// fail records one failure (probe or query), ejecting the replica at
// FailAfter consecutive ones.
func (r *replicaState) fail(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecOKs = 0
	r.consecFails++
	if err != nil {
		r.lastErr = err.Error()
	}
	if r.live && r.consecFails >= r.failAfter {
		r.live = false
		r.counters.Ejection()
	}
}

// eject forces the replica out of rotation immediately, bypassing the
// FailAfter threshold. Delivery uses it on KNOWN divergence — a live
// replica that failed an apply page, or reports a cursor below one it
// acknowledged, is not "maybe flaky", it is provably behind, and it
// must not serve another query until catch-up repairs it. FailAfter remains
// the threshold for ambiguous evidence (probe failures, query
// transport errors).
func (r *replicaState) eject(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.consecOKs = 0
	if err != nil {
		r.lastErr = err.Error()
	}
	if r.live {
		r.live = false
		r.counters.Ejection()
	}
}

// retire permanently removes the replica from every plane: it stops
// being probed, routed to, fanned out to, or counted in the truncation
// barrier. One-way by design — a retired slot's member is gone; a
// returning process joins as a NEW member.
func (r *replicaState) retire() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.retired = true
	r.live = false
	r.catchingUp = false
}

// releaseGate ends the post-admission bootstrap hold: the next
// successful probe streak may start the rejoin gate (catch-up) that
// flips the replica live.
func (r *replicaState) releaseGate() {
	r.mu.Lock()
	r.holdGate = false
	r.mu.Unlock()
}

// ok records one success (probe or query), readmitting the replica at
// reviveAfter consecutive ones. With a rejoin gate configured, probe
// successes alone never readmit: eligibility starts (at most) one gate
// run, and only its successful completion — the replica has streamed
// and applied the replication log through the head — flips live (see
// finishGate).
func (r *replicaState) ok() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.retired {
		return
	}
	r.consecFails = 0
	r.consecOKs++
	// A probe success on a gated, still-ejected replica must not erase
	// the last catch-up failure: that error is the operator's only clue
	// why the replica is healthy yet out of the ring.
	if r.live || r.gate == nil {
		r.lastErr = ""
	}
	if !r.live && r.consecOKs >= reviveAfter {
		if r.holdGate {
			// Admitted, healthy, but the join orchestration has not yet
			// bootstrapped it — flipping live (or streaming the whole log)
			// now would defeat the snapshot transfer.
			return
		}
		if r.gate != nil {
			if !r.catchingUp {
				r.catchingUp = true
				go r.gate()
			}
			return
		}
		r.live = true
		r.counters.Readmission()
	}
}

// finishGate completes a rejoin gate run: on success the replica goes
// live (the only way live flips true while a gate is configured); on
// failure it stays out with the error observable, and the next probe
// success starts another attempt.
func (r *replicaState) finishGate(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.catchingUp = false
	if err != nil {
		r.lastErr = "catch-up: " + err.Error()
		return
	}
	r.lastErr = ""
	if !r.live && !r.retired {
		r.live = true
		r.counters.Readmission()
	}
}

// topology is the immutable routing + membership view the whole read
// path works against: the epoch (bumped by every membership or ring
// change), the consistent-hash ring over the in-ring slot labels, and
// the slot-indexed member arrays. Every query loads it exactly ONCE —
// the epoch fence — so a request routed under epoch N can never mix
// epoch N ring decisions with epoch N+1 member arrays mid-flight.
// Member arrays are append-only across views (a slot, once assigned,
// always names the same member), which is what keeps slot indices
// stable across resizes for the health and replication planes.
type topology struct {
	epoch   uint64
	ring    *shard.Ring
	clients []*Client
	states  []*replicaState
	inRing  []bool // slot participates in read routing
	retired []bool // slot permanently removed (implies !inRing)
}

// Pool is a health-checked registry of replica clients that implements
// search.Searcher with consistent-hash routing and failover: each
// seeker's queries go to the replica owning it on the ring; when that
// replica is ejected (or an attempt fails with ErrUnavailable), the
// query walks the seeker's ring-successor order until a live replica
// answers, so a dead replica's seekers spill across the survivors.
//
// Membership is elastic: Admit registers a new replica outside the
// ring (it is probed and pins the replication log's truncation
// barrier, but serves no reads), Activate
// splices its slot into the ring once it is bootstrapped and warm, and
// Retire removes a slot from every plane. Each change publishes a new
// immutable topology under the next epoch; in-flight queries keep the
// view they loaded.
type Pool struct {
	topo atomic.Pointer[topology]
	cfg  PoolConfig

	// adminMu serializes membership changes (Admit/Activate/Retire) and
	// gate installation; the read path never takes it.
	adminMu    sync.Mutex
	rejoinGate func(replica int) error

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

var _ search.Searcher = (*Pool)(nil)

// NewPool builds a pool over the clients (≥ 1) and starts the health
// prober. Close stops it.
func NewPool(clients []*Client, cfg PoolConfig) (*Pool, error) {
	if len(clients) == 0 {
		return nil, errors.New("fleet: pool needs >= 1 replica")
	}
	for i, c := range clients {
		if c == nil {
			return nil, fmt.Errorf("fleet: nil replica client %d", i)
		}
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.FailAfter == 0 {
		cfg.FailAfter = DefaultFailAfter
	}
	if cfg.FailAfter < 0 {
		return nil, errors.New("fleet: negative pool config value")
	}
	ring, err := shard.NewRing(len(clients))
	if err != nil {
		return nil, err
	}
	t := &topology{
		epoch:   1,
		ring:    ring,
		clients: append([]*Client(nil), clients...),
		states:  make([]*replicaState, len(clients)),
		inRing:  make([]bool, len(clients)),
		retired: make([]bool, len(clients)),
	}
	for i, c := range clients {
		t.states[i] = &replicaState{
			live:      true,
			failAfter: cfg.FailAfter,
			counters:  c.Counters(),
		}
		t.inRing[i] = true
	}
	p := &Pool{cfg: cfg, stop: make(chan struct{})}
	p.topo.Store(t)
	if cfg.HealthInterval > 0 {
		p.wg.Add(1)
		go p.probeLoop()
	}
	return p, nil
}

// view returns the current topology (never nil).
func (p *Pool) view() *topology { return p.topo.Load() }

// state returns slot i's health state.
func (p *Pool) state(i int) *replicaState { return p.view().states[i] }

// Epoch returns the current topology epoch. It advances on every
// membership or ring change; two equal epochs observed around a
// routing decision certify the decision used a single consistent view.
func (p *Pool) Epoch() uint64 { return p.view().epoch }

// InRing reports whether slot i currently participates in read routing.
func (p *Pool) InRing(i int) bool {
	t := p.view()
	return i < len(t.inRing) && t.inRing[i]
}

// Retired reports whether slot i has been permanently removed.
func (p *Pool) Retired(i int) bool {
	t := p.view()
	return i < len(t.retired) && t.retired[i]
}

// applyGateLocked wires the registered rejoin gate into one state.
// Callers hold adminMu.
func (p *Pool) applyGateLocked(slot int, st *replicaState) {
	if gate := p.rejoinGate; gate != nil {
		st.mu.Lock()
		st.gate = func() { st.finishGate(gate(slot)) }
		st.mu.Unlock()
	}
}

// SetRejoinGate configures catch-up-gated readmission: a
// probed-healthy ejected replica stays out of the ring until gate
// (the Frontend's replication log catch-up) returns nil. At most one
// gate run per replica is in flight; a failed run leaves the replica
// out, the error in LastError, and the next successful probe retries.
// Applies to later admissions too. A pool with no gate readmits on the
// probe streak alone.
func (p *Pool) SetRejoinGate(gate func(replica int) error) {
	p.adminMu.Lock()
	defer p.adminMu.Unlock()
	p.rejoinGate = gate
	for i, st := range p.view().states {
		p.applyGateLocked(i, st)
	}
}

// Admit registers a new replica as the next slot, OUTSIDE the routing
// ring: it is probed for health, and its zero cursor pins the
// replication log's truncation barrier — exactly what a joiner
// bootstrapping from a snapshot needs — but it serves no reads, the
// heartbeat does not stream it, and its gate is held until
// ReleaseGate. Returns the new slot index.
func (p *Pool) Admit(c *Client) (int, error) {
	if c == nil {
		return 0, errors.New("fleet: nil replica client")
	}
	p.adminMu.Lock()
	defer p.adminMu.Unlock()
	old := p.view()
	slot := len(old.clients)
	st := &replicaState{
		live:      false,
		holdGate:  true,
		failAfter: p.cfg.FailAfter,
		counters:  c.Counters(),
	}
	p.applyGateLocked(slot, st)
	t := &topology{
		epoch:   old.epoch + 1,
		ring:    old.ring,
		clients: append(append([]*Client(nil), old.clients...), c),
		states:  append(append([]*replicaState(nil), old.states...), st),
		inRing:  append(append([]bool(nil), old.inRing...), false),
		retired: append(append([]bool(nil), old.retired...), false),
	}
	p.topo.Store(t)
	return slot, nil
}

// ReleaseGate ends slot i's post-admission bootstrap hold (snapshot
// imported): probe successes may now start the catch-up gate that
// flips it live.
func (p *Pool) ReleaseGate(i int) {
	p.view().states[i].releaseGate()
}

// Activate splices slot i into the routing ring under a new epoch. The
// member must be admitted and not retired; typically it is also live
// (bootstrapped, caught-up and pre-warmed) — activation is what flips
// read traffic onto it. Consistent hashing guarantees only the keys
// the new slot now owns change owner.
func (p *Pool) Activate(i int) error {
	p.adminMu.Lock()
	defer p.adminMu.Unlock()
	old := p.view()
	if i < 0 || i >= len(old.clients) {
		return fmt.Errorf("fleet: no replica slot %d", i)
	}
	if old.retired[i] {
		return fmt.Errorf("fleet: slot %d is retired", i)
	}
	if old.inRing[i] {
		return nil
	}
	slots := append(old.ring.Slots(), i)
	ring, err := shard.NewRingOf(slots)
	if err != nil {
		return err
	}
	t := &topology{
		epoch:   old.epoch + 1,
		ring:    ring,
		clients: old.clients,
		states:  old.states,
		inRing:  append([]bool(nil), old.inRing...),
		retired: old.retired,
	}
	t.inRing[i] = true
	p.topo.Store(t)
	return nil
}

// Retire removes slot i from every plane under a new epoch: read
// routing (its keys move to ring successors — and only its keys),
// record delivery, health probing, and the truncation barrier.
// One-way; the last in-ring slot cannot be retired.
func (p *Pool) Retire(i int) error {
	p.adminMu.Lock()
	defer p.adminMu.Unlock()
	old := p.view()
	if i < 0 || i >= len(old.clients) {
		return fmt.Errorf("fleet: no replica slot %d", i)
	}
	if old.retired[i] {
		return nil
	}
	ring := old.ring
	if old.inRing[i] {
		slots := make([]int, 0, len(old.ring.Slots())-1)
		for _, s := range old.ring.Slots() {
			if s != i {
				slots = append(slots, s)
			}
		}
		if len(slots) == 0 {
			return errors.New("fleet: cannot retire the last in-ring replica")
		}
		var err error
		if ring, err = shard.NewRingOf(slots); err != nil {
			return err
		}
	}
	t := &topology{
		epoch:   old.epoch + 1,
		ring:    ring,
		clients: old.clients,
		states:  old.states,
		inRing:  append([]bool(nil), old.inRing...),
		retired: append([]bool(nil), old.retired...),
	}
	t.inRing[i] = false
	t.retired[i] = true
	p.topo.Store(t)
	old.states[i].retire()
	return nil
}

// Ring returns the current routing ring (resize planning: the
// orchestrator diffs the current ring against a candidate via
// shard.MovedKeys to find the minimal moved slice).
func (p *Pool) Ring() *shard.Ring { return p.view().ring }

// RingAdding returns the candidate ring that Activate(slot) would
// install — the current in-ring slots plus slot — without changing
// anything. The orchestrator diffs it against Ring() to find the
// minimal seeker slice the joiner must be pre-warmed with.
func (p *Pool) RingAdding(slot int) (*shard.Ring, error) {
	t := p.view()
	if t.ring.HasSlot(slot) {
		return t.ring, nil
	}
	return shard.NewRingOf(append(t.ring.Slots(), slot))
}

// RingRemoving returns the candidate ring that Retire(slot) would
// install — the current in-ring slots minus slot. The orchestrator
// diffs it against Ring() to find which successors inherit the
// retiree's seekers (and should be pre-warmed with them).
func (p *Pool) RingRemoving(slot int) (*shard.Ring, error) {
	t := p.view()
	if !t.ring.HasSlot(slot) {
		return t.ring, nil
	}
	slots := make([]int, 0, len(t.ring.Slots())-1)
	for _, s := range t.ring.Slots() {
		if s != slot {
			slots = append(slots, s)
		}
	}
	if len(slots) == 0 {
		return nil, errors.New("fleet: cannot remove the last in-ring replica")
	}
	return shard.NewRingOf(slots)
}

// minApplied returns the minimum replication cursor across non-retired
// replicas — the fleet's truncation barrier input. A just-admitted
// joiner counts (its zero cursor pins the barrier through bootstrap);
// a retired replica never holds the log back.
func (p *Pool) minApplied() uint64 {
	t := p.view()
	min := ^uint64(0)
	for i, st := range t.states {
		if t.retired[i] {
			continue
		}
		st.mu.Lock()
		if st.appliedLSN < min {
			min = st.appliedLSN
		}
		st.mu.Unlock()
	}
	if min == ^uint64(0) {
		return 0
	}
	return min
}

// Close stops the health prober. Queries issued after Close still
// route, but health state freezes.
func (p *Pool) Close() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}

// Replicas returns the member count (every slot ever admitted,
// including retired ones — slot indices are stable).
func (p *Pool) Replicas() int { return len(p.view().clients) }

// Client returns replica i's client.
func (p *Pool) Client(i int) *Client { return p.view().clients[i] }

// Live reports whether replica i is currently in rotation.
func (p *Pool) Live(i int) bool { return p.view().states[i].isLive() }

// probeLoop sweeps /healthz on every replica each interval.
func (p *Pool) probeLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.cfg.HealthInterval)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.probeAll()
		}
	}
}

func (p *Pool) probeAll() {
	t := p.view()
	var wg sync.WaitGroup
	for i := range t.clients {
		if t.retired[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			st := t.states[i]
			before := st.applied()
			applied, err := t.clients[i].Healthz(ctx)
			st.mu.Lock()
			st.lastProbe = time.Now()
			st.mu.Unlock()
			switch {
			case err != nil:
				st.fail(err)
			case st.probeApplied(before, applied) < before && st.isLive():
				// The replica lost history it acknowledged: it restarted.
				st.eject(fmt.Errorf("fleet: replica cursor fell from %d to %d (restarted)", before, applied))
			default:
				st.ok()
			}
		}(i)
	}
	wg.Wait()
}

// anyLive reports whether any non-retired member is live, under the
// given view.
func (t *topology) anyLive() bool {
	for i, st := range t.states {
		if t.retired[i] {
			continue
		}
		if st.isLive() {
			return true
		}
	}
	return false
}

func (p *Pool) anyLive() bool { return p.view().anyLive() }

// ReplicaFor returns the slot of the replica that owns a seeker when
// every replica is healthy.
func (p *Pool) ReplicaFor(seeker string) int {
	return p.view().ring.OwnerString(seeker)
}

// Do answers one request with failover: the seeker's preference order
// is walked, skipping ejected replicas while any replica is live, and
// every ErrUnavailable attempt both feeds the owner's health state and
// moves on. Non-transport errors (validation, unknown names) return
// immediately — no replica will answer those differently. A shed
// (search.ErrOverloaded) also returns immediately and does NOT feed
// health state: the replica is alive and protecting itself, and failing
// over would dump its load onto the ring successors — the caller backs
// off and retries the same route instead.
//
// The topology is loaded ONCE per request (the epoch fence): a resize
// publishing a new epoch mid-request never mixes two rings inside one
// routing decision.
func (p *Pool) Do(ctx context.Context, req search.Request) (search.Response, error) {
	ctx, sp := obs.StartSpan(ctx, "fleet.route")
	defer sp.End()
	sp.SetAttr("seeker", req.Seeker)
	t := p.view()
	sp.SetInt("epoch", int64(t.epoch))
	pref := t.ring.SuccessorsString(req.Seeker)
	anyLive := t.anyLive()
	var lastErr error
	for rank, idx := range pref {
		if anyLive && !t.states[idx].isLive() {
			continue
		}
		if err := ctx.Err(); err != nil {
			return search.Response{}, err
		}
		c := t.clients[idx]
		c.Counters().Request()
		if rank > 0 {
			c.Counters().Failover()
		}
		resp, err := c.Do(ctx, req)
		if err == nil {
			t.states[idx].ok()
			return resp, nil
		}
		if !errors.Is(err, search.ErrUnavailable) {
			return search.Response{}, err
		}
		c.Counters().Failure()
		t.states[idx].fail(err)
		lastErr = err
	}
	if lastErr == nil {
		lastErr = unavailablef("no live replica for seeker %q", req.Seeker)
	}
	return search.Response{}, lastErr
}

// DoBatch partitions the batch by each seeker's first live preference,
// runs the sub-batches concurrently, and re-routes entries that failed
// with ErrUnavailable to their next preference — up to one round per
// replica, so a replica dying mid-batch costs its entries one retry,
// not the whole batch. Entries a replica shed (search.ErrOverloaded)
// are returned as-is, never re-routed — see Do. The whole batch runs
// under one topology view (the epoch fence).
func (p *Pool) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	out := make([]search.BatchResult, len(reqs))
	if len(reqs) == 0 {
		return out
	}
	ctx, sp := obs.StartSpan(ctx, "fleet.route")
	defer sp.End()
	sp.SetInt("queries", int64(len(reqs)))
	t := p.view()
	sp.SetInt("epoch", int64(t.epoch))
	// rank[i] is how far down request i's preference list routing has
	// walked; pending holds the requests still needing an answer.
	rank := make([]int, len(reqs))
	pending := make([]int, len(reqs))
	for i := range reqs {
		pending[i] = i
	}
	for round := 0; round <= len(t.clients) && len(pending) > 0; round++ {
		// A dead caller context makes every further attempt futile (and,
		// worse, would count against replica health): fail what is left.
		if err := ctx.Err(); err != nil {
			for _, i := range pending {
				out[i] = search.BatchResult{Err: err}
			}
			return out
		}
		anyLive := t.anyLive()
		subs := make(map[int][]int) // replica -> request indices
		var exhausted []int
		for _, i := range pending {
			pref := t.ring.SuccessorsString(reqs[i].Seeker)
			// Advance past ejected replicas (while any replica is live)
			// and past preferences already tried.
			idx := -1
			for rank[i] < len(pref) {
				cand := pref[rank[i]]
				if !anyLive || t.states[cand].isLive() {
					idx = cand
					break
				}
				rank[i]++
			}
			if idx < 0 {
				exhausted = append(exhausted, i)
				continue
			}
			subs[idx] = append(subs[idx], i)
		}
		for _, i := range exhausted {
			out[i] = search.BatchResult{Err: unavailablef("no live replica for seeker %q", reqs[i].Seeker)}
		}
		var wg sync.WaitGroup
		var mu sync.Mutex
		var retry []int
		for idx, members := range subs {
			wg.Add(1)
			go func(idx int, members []int) {
				defer wg.Done()
				c := t.clients[idx]
				sub := make([]search.Request, len(members))
				for j, i := range members {
					sub[j] = reqs[i]
					c.Counters().Request()
					if rank[i] > 0 {
						c.Counters().Failover()
					}
				}
				res := c.DoBatch(ctx, sub)
				var failed []int
				for j, br := range res {
					i := members[j]
					if br.Err != nil && errors.Is(br.Err, search.ErrUnavailable) {
						c.Counters().Failure()
						failed = append(failed, i)
						out[i] = br // kept if retries run out
						continue
					}
					out[i] = br
				}
				if len(failed) > 0 {
					t.states[idx].fail(out[failed[0]].Err)
				} else {
					t.states[idx].ok()
				}
				mu.Lock()
				for _, i := range failed {
					rank[i]++
					retry = append(retry, i)
				}
				mu.Unlock()
			}(idx, members)
		}
		wg.Wait()
		pending = retry
	}
	return out
}

// ReplicaStats is one replica's observable pool state.
type ReplicaStats struct {
	URL       string
	Live      bool
	LastError string `json:",omitempty"`
	// Slot is the member's stable slot index; InRing reports whether it
	// currently serves reads; Retired marks a permanently removed slot.
	Slot    int
	InRing  bool
	Retired bool `json:",omitempty"`
	// CatchingUp reports an in-flight rejoin gate run: the replica is
	// probed-healthy but held out of the ring until it has applied the
	// replication log through the head.
	CatchingUp bool
	// AppliedLSN is the replica's replication cursor as last observed
	// (mutation acks and health probes); ReplogLag is how many records
	// it trails the replication log head by (both 0 without a replog).
	AppliedLSN uint64
	ReplogLag  uint64
	Counters   metrics.ReplicaSnapshot
}

// Stats returns each member's health and counters, in slot order.
// ReplogLag is filled by the Frontend, which knows the log head.
func (p *Pool) Stats() []ReplicaStats {
	t := p.view()
	out := make([]ReplicaStats, len(t.clients))
	for i, c := range t.clients {
		st := t.states[i]
		st.mu.Lock()
		out[i] = ReplicaStats{
			URL:        c.URL(),
			Live:       st.live && !st.retired,
			LastError:  st.lastErr,
			Slot:       i,
			InRing:     t.inRing[i],
			Retired:    t.retired[i],
			CatchingUp: st.catchingUp,
			AppliedLSN: st.appliedLSN,
			Counters:   c.Counters().Snapshot(),
		}
		st.mu.Unlock()
	}
	return out
}

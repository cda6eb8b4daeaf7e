package fleet

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/shard"
)

// Elastic resize: grow and shrink the replica fleet under traffic.
//
// JoinReplica adopts a running replica process into the fleet without a
// restart and without restreaming the whole replication log:
//
//  1. Admit — the joiner becomes a slot outside the routing ring. It is
//     probed, and its zero cursor pins the replication log's truncation
//     barrier, so the suffix it is about to need cannot be reclaimed
//     mid-join.
//  2. Bootstrap — a state snapshot pinned at some LSN L streams from a
//     live replica into the joiner (GET→POST /v2/snapshot), replacing
//     full history with one bulk transfer. A durable joiner that
//     already holds a persisted cursor above the log's truncation
//     barrier skips this step and resumes from its cursor instead.
//  3. Catch-up — the ordinary rejoin gate streams the replog suffix
//     (L, head]; it exits against the current bound, and the heartbeat
//     streams the joiner every record committed after that.
//  4. Pre-warm — the joiner materializes exactly the cached seeker
//     horizons that the grown ring will move onto it (shard.MovedKeys
//     over the current owners' resident seekers), so activation does
//     not start with a cold cache.
//  5. Activate — the ring grows under a new topology epoch; consistent
//     hashing moves only the joiner's slice.
//
// RetireReplica is the reverse: pre-warm the ring successors with the
// retiree's resident seekers (the drain), then retire the slot under a
// new epoch. The replica process itself keeps running — it just stops
// being part of the fleet.
//
// Both operations require a log without peers: the log is what lets a
// joiner bootstrap from a snapshot plus a suffix, and the pool they
// change is this front-end's own. HA front-ends each own a static pool
// and membership is not replicated, so resizing them is a
// deployment-level operation.

// ErrNoElasticLog rejects resize operations on a front-end without a
// log, or whose log has peers.
var ErrNoElasticLog = errors.New("fleet: elastic resize requires a one-member replication log")

// JoinReplica adopts the replica serving at url into the fleet and
// returns its slot. Idempotent on retry: a url already admitted (and
// not retired) resumes the join from wherever the previous attempt
// stopped rather than admitting a duplicate slot.
func (f *Frontend) JoinReplica(ctx context.Context, url string) (int, error) {
	log := f.node.Load()
	if log == nil || log.Members() > 1 {
		return 0, ErrNoElasticLog
	}
	ctx, sp := obs.StartSpan(ctx, "fleet.join")
	defer sp.End()
	sp.SetAttr("url", url)

	c, slot, fresh, err := f.adoptClient(url)
	if err != nil {
		return 0, err
	}
	sp.SetInt("slot", int64(slot))
	if f.pool.InRing(slot) {
		return slot, nil // already fully joined
	}

	// The joiner's own cursor decides the bootstrap path. Probe it
	// directly — the pool's tracked value may not have seen the replica
	// yet.
	cursor, err := f.probeCursor(ctx, log, slot)
	if err != nil {
		return slot, fmt.Errorf("fleet: joiner %s: %w", url, err)
	}
	sp.SetInt("cursor", int64(cursor))

	// Snapshot bootstrap — unless the joiner's persisted cursor proves it
	// already holds a prefix the log can still extend (a restarted
	// durable replica resuming from its cursor WAL: every record past its
	// cursor is still in the log, so catch-up alone closes the gap).
	if cursor == 0 || cursor+1 < log.Barrier() {
		lsn, err := f.bootstrapSnapshot(ctx, c, slot)
		if err != nil {
			return slot, err
		}
		sp.SetInt("snapshot_lsn", int64(lsn))
	} else {
		sp.SetAttr("bootstrap", "cursor-resume")
	}

	// Drive the rejoin gate inline rather than waiting for the prober's
	// streak: catchUp streams the suffix from the joiner's cursor to the
	// moving head, its last page folding it in. catchingUp
	// is claimed first so a concurrent probe-started gate run (possible
	// only if a previous join attempt already released the hold) cannot
	// double-stream.
	st := f.pool.state(slot)
	st.mu.Lock()
	racing := st.catchingUp
	if !racing {
		st.catchingUp = true
	}
	st.mu.Unlock()
	if !racing {
		st.finishGate(f.catchUp(slot))
	}
	// Whatever happened, the bootstrap hold ends here: from now on the
	// ordinary probe→gate→live machinery owns the slot, so even a failed
	// join converges to a caught-up admitted member.
	f.pool.ReleaseGate(slot)
	if !f.pool.Live(slot) {
		if fresh {
			return slot, fmt.Errorf("fleet: joiner %s admitted as slot %d but not live after catch-up: %s", url, slot, f.pool.Stats()[slot].LastError)
		}
		return slot, fmt.Errorf("fleet: joiner %s (slot %d) not live after catch-up: %s", url, slot, f.pool.Stats()[slot].LastError)
	}

	// Pre-warm the exact slice the grown ring will hand the joiner, so
	// the flip does not trade correctness for a cold-cache latency cliff.
	// Best-effort: a failed warm costs first-query latency, not answers.
	warmed, werr := f.warmJoiner(ctx, c, slot)
	sp.SetInt("warmed", int64(warmed))
	if werr != nil {
		sp.SetAttr("warm_error", werr.Error())
	}

	if err := f.pool.Activate(slot); err != nil {
		return slot, err
	}
	sp.SetInt("epoch", int64(f.pool.Epoch()))
	return slot, nil
}

// adoptClient resolves url to a member slot, admitting a new one unless
// a non-retired slot already serves that url.
func (f *Frontend) adoptClient(url string) (c *Client, slot int, fresh bool, err error) {
	for i := 0; i < f.pool.Replicas(); i++ {
		if !f.pool.Retired(i) && f.pool.Client(i).URL() == url {
			return f.pool.Client(i), i, false, nil
		}
	}
	if c, err = NewClient(url, ClientConfig{}); err != nil {
		return nil, 0, false, err
	}
	if slot, err = f.pool.Admit(c); err != nil {
		return nil, 0, false, err
	}
	return c, slot, true, nil
}

// bootstrapSnapshot streams a pinned-LSN state snapshot from the first
// live in-ring replica into the joiner and returns the pinned LSN.
func (f *Frontend) bootstrapSnapshot(ctx context.Context, joiner *Client, slot int) (uint64, error) {
	ctx, sp := obs.StartSpan(ctx, "fleet.snapshot")
	defer sp.End()
	var src *Client
	for i := 0; i < f.pool.Replicas(); i++ {
		if i != slot && f.pool.InRing(i) && f.pool.Live(i) {
			src = f.pool.Client(i)
			break
		}
	}
	if src == nil {
		return 0, unavailablef("no live replica to snapshot from")
	}
	sp.SetAttr("source", src.URL())
	r, lsn, err := src.SnapshotReader(ctx)
	if err != nil {
		return 0, fmt.Errorf("fleet: snapshot export from %s: %w", src.URL(), err)
	}
	defer r.Close()
	ack, err := joiner.ImportSnapshot(ctx, r)
	if err != nil {
		return 0, fmt.Errorf("fleet: snapshot import into %s: %w", joiner.URL(), err)
	}
	if ack != lsn {
		return 0, fmt.Errorf("fleet: snapshot import ack %d != pinned lsn %d", ack, lsn)
	}
	sp.SetInt("lsn", int64(lsn))
	// The tracked cursor jumps to the pinned LSN immediately (the next
	// probe would get there anyway); the truncation barrier may rise past
	// the snapshotted prefix, which the joiner no longer needs.
	f.pool.state(slot).setApplied(lsn)
	return lsn, nil
}

// warmJoiner pre-warms the joiner with exactly the resident seeker
// horizons the grown ring will move onto it: the union of live in-ring
// replicas' cached seekers, filtered by shard.MovedKeys against the
// candidate ring to the slice whose ownership changes to the joiner.
func (f *Frontend) warmJoiner(ctx context.Context, joiner *Client, slot int) (int, error) {
	oldRing := f.pool.Ring()
	newRing, err := f.pool.RingAdding(slot)
	if err != nil {
		return 0, err
	}
	seen := make(map[string]struct{})
	var seekers []string
	for i := 0; i < f.pool.Replicas(); i++ {
		if i == slot || !f.pool.InRing(i) || !f.pool.Live(i) {
			continue
		}
		names, err := f.pool.Client(i).CachedSeekers(ctx)
		if err != nil {
			continue // best-effort: this replica's residents warm on first query
		}
		for _, n := range names {
			if _, ok := seen[n]; !ok {
				seen[n] = struct{}{}
				seekers = append(seekers, n)
			}
		}
	}
	moved := shard.MovedKeys(oldRing, newRing, seekers)[slot]
	if len(moved) == 0 {
		return 0, nil
	}
	if len(moved) > MaxWarmBatch {
		moved = moved[:MaxWarmBatch]
	}
	return joiner.WarmSeekers(ctx, moved)
}

// MaxWarmBatch bounds one resize's pre-warm transfer; seekers beyond it
// (coldest last — CachedSeekers returns hottest-first per stripe) warm
// on first query instead.
const MaxWarmBatch = 16384

// RetireReplica drains slot's cached working set to its ring successors
// and removes it from the fleet under a new topology epoch. The drained
// replica keeps running; it is simply no longer a member. One-way.
func (f *Frontend) RetireReplica(ctx context.Context, slot int) error {
	if log := f.node.Load(); log == nil || log.Members() > 1 {
		return ErrNoElasticLog
	}
	ctx, sp := obs.StartSpan(ctx, "fleet.drain")
	defer sp.End()
	sp.SetInt("slot", int64(slot))
	if slot < 0 || slot >= f.pool.Replicas() {
		return fmt.Errorf("fleet: no replica slot %d", slot)
	}
	if f.pool.Retired(slot) {
		return nil
	}

	// Drain: hand the retiree's resident seekers to whichever successor
	// the shrunk ring assigns them, before the flip — same bounded,
	// best-effort warm plane as joining, in reverse.
	if f.pool.InRing(slot) {
		oldRing := f.pool.Ring()
		newRing, err := f.pool.RingRemoving(slot)
		if err != nil {
			return err
		}
		var residents []string
		if f.pool.Live(slot) {
			residents, _ = f.pool.Client(slot).CachedSeekers(ctx)
		}
		if len(residents) > MaxWarmBatch {
			residents = residents[:MaxWarmBatch]
		}
		warmed := 0
		for dst, names := range shard.MovedKeys(oldRing, newRing, residents) {
			if dst == slot || !f.pool.Live(dst) {
				continue
			}
			if n, err := f.pool.Client(dst).WarmSeekers(ctx, names); err == nil {
				warmed += n
			}
		}
		sp.SetInt("drained", int64(warmed))
	}

	if err := f.pool.Retire(slot); err != nil {
		return err
	}
	sp.SetInt("epoch", int64(f.pool.Epoch()))
	return nil
}

// FleetEpoch returns the current topology epoch (server.Frontend).
func (f *Frontend) FleetEpoch() uint64 { return f.pool.Epoch() }

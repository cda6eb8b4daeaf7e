package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/social"
)

// TestHeartbeatSkipsEjectedReplica: an ejected replica is not a
// heartbeat target, so one that blackholes its fold pages cannot hold
// the live replicas' write visibility hostage for the heartbeat timeout.
func TestHeartbeatSkipsEjectedReplica(t *testing.T) {
	front, pool, reps, clients := newCatchupFleet(t, 3, t.TempDir())
	victim := 0
	reps[victim].hangFolds.Store(true)
	reps[victim].down.Store(true)
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(victim) })

	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := front.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > beatTimeout/5 {
		t.Fatalf("Flush took %v with one ejected replica hanging on fold pages (timeout %v)", took, beatTimeout)
	}
	for i := 1; i < 3; i++ {
		resp, err := clients[i].Do(context.Background(), search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact})
		if err != nil || len(resp.Results) != 1 || resp.Results[0].Item != "luigis" {
			t.Fatalf("live replica %d after Flush: results %+v, err %v; want the acked write served", i, resp.Results, err)
		}
	}
	if st := front.StatsAny().(Stats).Broadcast; st.Counters.Failures != 0 || st.LagMS != 0 {
		t.Fatalf("broadcast stats = %+v, want no failure and no lag: the ejected replica was never a target", st)
	}
}

// TestHeartbeatRetriesAfterFailure: a live replica that loses a
// heartbeat's fold page is not left on a stale snapshot until the next
// fleet write. The failed page ejects it at once (a failure the
// broadcaster counts), and the catch-up that readmits it streams the
// records again with a fold, though nothing more is written.
func TestHeartbeatRetriesAfterFailure(t *testing.T) {
	front, pool, reps, clients := newCatchupFleet(t, 2, t.TempDir())
	ref, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	victim := 0
	reps[victim].dropFolds.Store(1)
	for _, err := range []error{
		ref.Befriend("u0", "u1", 0.9), front.Befriend("u0", "u1", 0.9),
		ref.Tag("u1", "luigis", "t0"), front.Tag("u1", "luigis", "t0"),
		ref.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		vs := front.StatsAny().(Stats).Replicas[victim]
		return reps[victim].dropFolds.Load() == 0 && vs.Counters.Ejections == 1 &&
			pool.Live(victim) && reps[victim].svc.AppliedLSN() == 2
	})
	if st := reps[victim].svc.Stats(); st.PendingWrites != 0 {
		t.Fatalf("readmitted replica stats = %+v, want nothing pending", st)
	}
	if vs := front.StatsAny().(Stats).Replicas[victim]; vs.Counters.Catchups < 1 {
		t.Fatalf("victim counters = %+v, want catch-up to have readmitted it", vs.Counters)
	}
	compareReplicaToReference(t, context.Background(), clients[victim], ref, 2, 1)
	waitFor(t, 5*time.Second, func() bool {
		st := front.bcast.Stats()
		return st.Counters.Failures == 1 && st.LagMS == 0 && heartbeatSettled(front.bcast)
	})
}

// heartbeatSettled reports whether no heartbeat is owed or in flight.
func heartbeatSettled(b *Broadcaster) bool {
	b.flushMu.Lock()
	defer b.flushMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.dirty
}

// TestHeartbeatLossDifferential runs seeded scripts of {Befriend, Tag,
// kill, revive, drop the next fold page at one replica, drop the next
// apply page at one replica, quiesce} over real replicas and demands,
// at every quiesce, that each live replica — queried directly, its
// cache warm from the previous quiesce — answers mode=exact
// bit-identically to an in-process reference fed the same stream:
// whichever heartbeats or pages were lost or skipped, every replica
// dropped exactly the horizons its own compactions had to.
func TestHeartbeatLossDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { heartbeatLossScript(t, seed, 300) })
	}
}

func heartbeatLossScript(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	// The reference caches nothing, so it cannot share a cache bug with
	// the replicas.
	cfg := social.DefaultServiceConfig()
	cfg.SeekerCacheSize = -1
	ref, err := social.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const nReplicas, nUsers, nItems, nTags = 3, 12, 10, 3
	front, pool, reps, clients := newCatchupFleet(t, nReplicas, t.TempDir())
	user := func(i int) string { return fmt.Sprintf("u%d", i) }
	must := func(step int, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}
	}
	// serving lists the replicas that are up and in rotation.
	serving := func() (out []int) {
		for i, r := range reps {
			if !r.down.Load() && pool.Live(i) {
				out = append(out, i)
			}
		}
		return out
	}
	// armed marks the replicas a page or fold page drop was armed on
	// since the last quiesce. The drop ejects a live replica once its
	// page fails, which is after the counter reads zero again, so only
	// a quiesce — whose heartbeats have all returned — clears the mark.
	armed := make([]bool, nReplicas)
	arm := func(i int, drops *atomic.Int32) {
		armed[i] = true
		drops.Add(1)
	}
	// steady lists the serving replicas no armed drop will eject: kills
	// and drops leave one, so the writes always find a live replica.
	steady := func() (out []int) {
		for _, i := range serving() {
			if !armed[i] {
				out = append(out, i)
			}
		}
		return out
	}
	quiesce := func(step int) {
		t.Helper()
		// Revived replicas finish catching up (a dropped page fails one
		// attempt; the next probe retries) ...
		waitFor(t, 10*time.Second, func() bool {
			for i, r := range reps {
				if !r.down.Load() && !pool.Live(i) {
					return false
				}
			}
			return true
		})
		// ... and heartbeats go out until none is owed.
		must(step, ref.Flush())
		for settled := false; !settled; settled = heartbeatSettled(front.bcast) {
			must(step, front.Flush())
		}
		for _, i := range serving() {
			compareReplicaToReference(t, ctx, clients[i], ref, nUsers, nTags)
		}
		for i, r := range reps {
			armed[i] = r.dropApplies.Load() != 0 || r.dropFolds.Load() != 0
		}
	}

	for i := 0; i < nUsers; i++ {
		a, b := user(i), user((i+1)%nUsers)
		must(-1, ref.Befriend(a, b, 0.6))
		must(-1, front.Befriend(a, b, 0.6))
	}
	for step := 0; step < steps; step++ {
		switch p := rng.Intn(100); {
		case p < 35:
			a := rng.Intn(nUsers)
			b := (a + 1 + rng.Intn(nUsers-1)) % nUsers
			w := 0.1 + 0.9*rng.Float64()
			must(step, ref.Befriend(user(a), user(b), w))
			must(step, front.Befriend(user(a), user(b), w))
		case p < 65:
			u, it, tg := user(rng.Intn(nUsers)), fmt.Sprintf("i%d", rng.Intn(nItems)), fmt.Sprintf("t%d", rng.Intn(nTags))
			must(step, ref.Tag(u, it, tg))
			must(step, front.Tag(u, it, tg))
		case p < 70: // kill
			if up := steady(); len(up) >= 2 {
				reps[up[rng.Intn(len(up))]].down.Store(true)
			}
		case p < 78: // revive
			reps[rng.Intn(nReplicas)].down.Store(false)
		case p < 83:
			if up := steady(); len(up) >= 2 {
				i := up[rng.Intn(len(up))]
				arm(i, &reps[i].dropFolds)
			}
		case p < 88:
			if up := steady(); len(up) >= 2 {
				i := up[rng.Intn(len(up))]
				arm(i, &reps[i].dropApplies)
			}
		default:
			quiesce(step)
		}
	}
	for _, r := range reps {
		r.down.Store(false)
	}
	quiesce(steps)
}

// TestWriteAcksAtCommitDuringApplyOutage is the regression test for a
// committed write answered as failed: with every replica's /v2/apply
// down, a write used to answer 503 although its record was already in
// the log — and catch-up delivered it later anyway, so a client that
// retried applied the Tag twice. The write acks at commit now, and once
// the replicas are back each holds it exactly once.
func TestWriteAcksAtCommitDuringApplyOutage(t *testing.T) {
	front, pool, reps, clients := newCatchupFleet(t, 2, t.TempDir())
	ref, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{ref.Befriend("u0", "u1", 0.9), front.Befriend("u0", "u1", 0.9), front.Flush()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	head := front.StatsAny().(Stats).Replog.Head
	for _, r := range reps {
		r.dropApplies.Store(1 << 20)
	}
	if err := front.Tag("u1", "luigis", "t0"); err != nil {
		t.Fatalf("tag during an apply outage: %v, want an ack (the record is committed)", err)
	}
	if err := ref.Tag("u1", "luigis", "t0"); err != nil {
		t.Fatal(err)
	}
	// The heartbeat's failed pages eject both replicas; revived, they
	// catch up.
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(0) && !pool.Live(1) })
	for _, r := range reps {
		r.dropApplies.Store(0)
	}
	waitFor(t, 10*time.Second, func() bool { return pool.Live(0) && pool.Live(1) })
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := front.StatsAny().(Stats).Replog.Head; got != head+1 {
		t.Fatalf("log head = %d after one Tag, want %d: the Tag logged once", got, head+1)
	}
	for _, c := range clients {
		compareReplicaToReference(t, context.Background(), c, ref, 2, 1)
	}
}

// TestSteadyHeartbeatsReadNoLog: with every replica live and keeping
// up, the heartbeat streams the records the front-end holds — the log,
// which wal reads by rescanning a segment from its start, is never
// read, however the heartbeats interleave with the writes.
func TestSteadyHeartbeatsReadNoLog(t *testing.T) {
	front, _, reps, _ := newCatchupFleet(t, 3, "")
	useLog(t, front, t.TempDir())
	const writes = 200
	for i := 0; i < writes; i++ {
		if err := front.Tag(fmt.Sprintf("u%d", i%7), fmt.Sprintf("i%d", i), "t0"); err != nil {
			t.Fatal(err)
		}
		if i%16 == 0 {
			if err := front.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, r := range reps {
		if got := r.svc.AppliedLSN(); got != writes {
			t.Fatalf("replica %d cursor = %d, want %d", i, got, writes)
		}
	}
	if n := front.logReads.Load(); n != 0 {
		t.Fatalf("%d writes and their heartbeats read the log %d times, want 0", writes, n)
	}
}

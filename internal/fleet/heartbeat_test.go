package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/social"
)

// TestHeartbeatSkipsEjectedReplica: an ejected replica is not a
// heartbeat target, so one that blackholes /v2/invalidate cannot hold
// the live replicas' write visibility hostage for the broadcast timeout.
func TestHeartbeatSkipsEjectedReplica(t *testing.T) {
	front, pool, reps, clients := newCatchupFleet(t, 3, t.TempDir())
	victim := 0
	reps[victim].hangBeats.Store(true)
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
	if took := time.Since(start); took > DefaultBroadcastTimeout/5 {
		t.Fatalf("Flush took %v with one ejected replica hanging on /v2/invalidate (timeout %v)", took, DefaultBroadcastTimeout)
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

// TestHeartbeatRetriesAfterFailure: a live replica that fails one
// heartbeat is retried after a window, not left on a stale snapshot
// until the next fleet write.
func TestHeartbeatRetriesAfterFailure(t *testing.T) {
	front, pool, reps, clients := newCatchupFleet(t, 2, t.TempDir())
	ref, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	victim := 0
	reps[victim].dropBeats.Store(1)
	for _, err := range []error{
		ref.Befriend("u0", "u1", 0.9), front.Befriend("u0", "u1", 0.9),
		ref.Tag("u1", "luigis", "t0"), front.Tag("u1", "luigis", "t0"),
		ref.Flush(),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Nothing more is written. The victim stays live throughout (a failed
	// heartbeat is not a health signal) and must converge on its own.
	waitFor(t, 5*time.Second, func() bool {
		return reps[victim].dropBeats.Load() == 0 && reps[victim].svc.Stats().PendingWrites == 0
	})
	if !pool.Live(victim) {
		t.Fatal("a failed heartbeat ejected the replica")
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
// kill, revive, drop the next heartbeat at one replica, quiesce} over
// real replicas and demands, at every quiesce, that each live replica —
// queried directly, its cache warm from the previous quiesce — answers
// mode=exact bit-identically to an in-process reference fed the same
// stream: whichever heartbeats were lost or skipped, every replica
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
	quiesce := func(step int) {
		t.Helper()
		// Revived replicas finish catching up (a dropped closing heartbeat
		// fails one attempt; the next probe retries) ...
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
		case p < 70: // kill, keeping one serving replica for the writes
			if up := serving(); len(up) >= 2 {
				reps[up[rng.Intn(len(up))]].down.Store(true)
			}
		case p < 78: // revive
			reps[rng.Intn(nReplicas)].down.Store(false)
		case p < 88:
			reps[rng.Intn(nReplicas)].dropBeats.Add(1)
		default:
			quiesce(step)
		}
	}
	for _, r := range reps {
		r.down.Store(false)
	}
	quiesce(steps)
}

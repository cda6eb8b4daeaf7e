package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/social"
)

// TestFleetMatchesSingleProcess is the fleet's acceptance property: a
// 3-replica fleet fed a random mutation stream through the front-end
// answers mode=exact queries bit-identically to one in-process service
// fed the same stream — including right after a batched Befriend
// invalidation broadcast — and killing a replica mid-stream loses no
// queries: they fail over and still match.
func TestFleetMatchesSingleProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ctx := context.Background()

	// Reference: one in-process service. Its compaction cadence differs
	// from the fleet's (that is the point of batching), so answers are
	// compared at quiesce points where both sides have folded
	// everything in.
	ref, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Fleet: 3 replicas in broadcast-heartbeat posture behind the real
	// HTTP server, one front-end.
	const nReplicas = 3
	var servers []*httptest.Server
	var clients []*Client
	for i := 0; i < nReplicas; i++ {
		_, ts := newReplica(t)
		servers = append(servers, ts)
		clients = append(clients, newTestClient(t, ts.URL, ClientConfig{}))
	}
	pool, err := NewPool(clients, PoolConfig{HealthInterval: 20 * time.Millisecond, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	bcast := NewBroadcaster(clients, BroadcasterConfig{Window: 2 * time.Millisecond})
	front, err := NewFrontend(pool, bcast)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	useLog(t, front, t.TempDir())

	const nUsers, nItems, nTags = 24, 30, 5
	user := func(i int) string { return fmt.Sprintf("u%d", i) }
	befriend := func(a, b string, w float64) {
		t.Helper()
		if err := ref.Befriend(a, b, w); err != nil {
			t.Fatal(err)
		}
		if err := front.Befriend(a, b, w); err != nil {
			t.Fatal(err)
		}
	}
	tag := func(u, i, tg string) {
		t.Helper()
		if err := ref.Tag(u, i, tg); err != nil {
			t.Fatal(err)
		}
		if err := front.Tag(u, i, tg); err != nil {
			t.Fatal(err)
		}
	}
	mutate := func() {
		if rng.Intn(2) == 0 {
			a := rng.Intn(nUsers)
			b := (a + 1 + rng.Intn(nUsers-1)) % nUsers // never a self-edge
			befriend(user(a), user(b), 0.1+0.9*rng.Float64())
		} else {
			tag(user(rng.Intn(nUsers)), fmt.Sprintf("i%d", rng.Intn(nItems)), fmt.Sprintf("t%d", rng.Intn(nTags)))
		}
	}

	// quiesce folds everything on both sides: the reference compacts
	// locally, the fleet sends the owed heartbeat (which compacts every
	// replica).
	quiesce := func() {
		t.Helper()
		if err := ref.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := front.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	// compare checks every seeker × tag bit-identically (float64
	// equality: scores survive the JSON round trip exactly, and both
	// sides run the same engine over the same compacted state).
	compare := func(phase string) {
		t.Helper()
		for u := 0; u < nUsers; u++ {
			for tg := 0; tg < nTags; tg++ {
				req := search.Request{Seeker: user(u), Tags: []string{fmt.Sprintf("t%d", tg)}, K: 8, Mode: search.ModeExact}
				want, werr := ref.Do(ctx, req)
				got, gerr := front.Do(ctx, req)
				if (werr == nil) != (gerr == nil) {
					t.Fatalf("%s: seeker %s tag t%d: ref err %v, fleet err %v", phase, user(u), tg, werr, gerr)
				}
				if werr != nil {
					continue // both reject (unknown tag/seeker) — parity holds
				}
				if len(want.Results) != len(got.Results) {
					t.Fatalf("%s: seeker %s tag t%d: %d vs %d results", phase, user(u), tg, len(want.Results), len(got.Results))
				}
				for i := range want.Results {
					if want.Results[i] != got.Results[i] {
						t.Fatalf("%s: seeker %s tag t%d result %d: ref %+v, fleet %+v",
							phase, user(u), tg, i, want.Results[i], got.Results[i])
					}
				}
			}
		}
	}

	// Phase 1: seed corpus, quiesce, compare.
	for i := 0; i < nUsers; i++ {
		befriend(user(i), user((i+1)%nUsers), 0.5+0.4*rng.Float64())
	}
	for i := 0; i < 60; i++ {
		mutate()
	}
	quiesce()
	compare("seeded")

	// Phase 2: churn — the broadcast path must keep replica caches
	// consistent across many batched invalidations. Queries interleave
	// with writes to keep replica caches populated (and therefore
	// falsifiable: a missed invalidation would surface as a stale
	// horizon at the next compare).
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			mutate()
			if i%4 == 0 {
				req := search.Request{Seeker: user(rng.Intn(nUsers)), Tags: []string{fmt.Sprintf("t%d", rng.Intn(nTags))}, K: 8, Mode: search.ModeExact}
				if _, err := front.Do(ctx, req); err != nil && !errors.Is(err, search.ErrInvalid) {
					t.Fatalf("churn query: %v", err)
				}
			}
		}
		quiesce()
		compare(fmt.Sprintf("churn round %d", round))
	}

	// Phase 3: kill one replica mid-stream. Every query must keep
	// succeeding (failing over), writes keep applying to the
	// survivors, and answers still match the reference.
	dead := pool.ReplicaFor(user(0))
	servers[dead].Close()
	for i := 0; i < 30; i++ {
		mutate()
		req := search.Request{Seeker: user(rng.Intn(nUsers)), Tags: []string{fmt.Sprintf("t%d", rng.Intn(nTags))}, K: 8, Mode: search.ModeExact}
		if _, err := front.Do(ctx, req); err != nil && !errors.Is(err, search.ErrInvalid) {
			t.Fatalf("query %d after replica kill: %v", i, err)
		}
	}
	quiesce()
	compare("after replica kill")

	// The ejection is observable in stats. No heartbeat ever waited on the
	// dead replica: none was owed when it died (the fleet was quiesced),
	// and the first heartbeat that failed a page to it ejected it, which
	// is not a heartbeat failure — it owes no retry.
	stats := front.StatsAny().(Stats)
	if stats.Replicas[dead].Live {
		t.Fatal("killed replica still live in stats")
	}
	if stats.Replicas[dead].Counters.Ejections < 1 {
		t.Fatalf("killed replica stats = %+v, want >=1 ejection", stats.Replicas[dead])
	}
	if stats.Broadcast.Counters.Failures != 0 || stats.Broadcast.LagMS != 0 {
		t.Fatalf("broadcast stats = %+v, want no failed heartbeat and nothing owed", stats.Broadcast)
	}
	// A batch fans out across survivors and still answers everything.
	var reqs []search.Request
	for u := 0; u < nUsers; u++ {
		reqs = append(reqs, search.Request{Seeker: user(u), Tags: []string{"t0"}, K: 8, Mode: search.ModeExact})
	}
	for i, br := range front.DoBatch(ctx, reqs) {
		if br.Err != nil && !errors.Is(br.Err, search.ErrInvalid) {
			t.Fatalf("batch[%d] after replica kill: %v", i, br.Err)
		}
	}
}

// TestFleetReadmissionServesFreshData is the replication log's
// acceptance property, and the reproduction of the PR 4 correctness
// hole: eject a replica, keep mutating through the front-end, readmit
// it, and demand the READMITTED REPLICA ITSELF — queried directly over
// the wire, not through failover — answers every mode=exact query
// bit-identically to an in-process reference fed the same stream.
// Without the WAL-backed catch-up gate, the prober readmits the replica
// on probe successes alone and this test fails on the first seeker
// whose proximity the missed mutations changed; with it, readmission
// waits for the replica to stream and apply the records it missed, so
// the fleet is bit-identical again the moment the replica is back.
func TestFleetReadmissionServesFreshData(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()

	ref, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	front, pool, reps, clients := newCatchupFleet(t, 3, t.TempDir())

	const nUsers, nItems, nTags = 20, 24, 4
	user := func(i int) string { return fmt.Sprintf("u%d", i) }
	mutate := func() {
		t.Helper()
		if rng.Intn(2) == 0 {
			a := rng.Intn(nUsers)
			b := (a + 1 + rng.Intn(nUsers-1)) % nUsers
			w := 0.1 + 0.9*rng.Float64()
			if err := ref.Befriend(user(a), user(b), w); err != nil {
				t.Fatal(err)
			}
			if err := front.Befriend(user(a), user(b), w); err != nil {
				t.Fatalf("front befriend: %v; stats: %+v", err, front.StatsAny())
			}
		} else {
			u, it, tg := user(rng.Intn(nUsers)), fmt.Sprintf("i%d", rng.Intn(nItems)), fmt.Sprintf("t%d", rng.Intn(nTags))
			if err := ref.Tag(u, it, tg); err != nil {
				t.Fatal(err)
			}
			if err := front.Tag(u, it, tg); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Seed, quiesce, and warm the victim's seeker cache with queries —
	// so a missed invalidation would be falsifiable too.
	for i := 0; i < nUsers; i++ {
		if err := ref.Befriend(user(i), user((i+1)%nUsers), 0.6); err != nil {
			t.Fatal(err)
		}
		if err := front.Befriend(user(i), user((i+1)%nUsers), 0.6); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		mutate()
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	victim := pool.ReplicaFor(user(0))
	for u := 0; u < nUsers; u++ {
		req := search.Request{Seeker: user(u), Tags: []string{"t0"}, K: 8, Mode: search.ModeExact}
		if _, err := clients[victim].Do(ctx, req); err != nil && !errors.Is(err, search.ErrInvalid) {
			t.Fatalf("cache warm query u%d: %v", u, err)
		}
	}

	// Eject the victim and keep mutating: these are exactly the
	// mutations the PR 4 fleet silently lost on readmission.
	reps[victim].down.Store(true)
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(victim) })
	for i := 0; i < 40; i++ {
		mutate()
	}
	// The divergence is stats-visible while it lasts: the heartbeat
	// streams only admissible replicas, so the cursor the front-end
	// tracks for the victim trails the log.
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	if vs := front.StatsAny().(Stats).Replicas[victim]; vs.ReplogLag < 1 {
		t.Fatalf("victim stats = %+v while down, want a replog lag of >= 1", vs)
	}

	// Readmit. The pool must gate on catch-up: when Live flips true the
	// replica has already streamed and applied everything it missed.
	reps[victim].down.Store(false)
	waitFor(t, 10*time.Second, func() bool { return pool.Live(victim) })
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}

	// The headline assertion: the readmitted replica itself is
	// bit-identical to the reference.
	compareReplicaToReference(t, ctx, clients[victim], ref, nUsers, nTags)

	// And the rejoin is observable: the catch-up that repaired the
	// divergence is counted, and the replica sits at the replication log
	// head.
	stats := front.StatsAny().(Stats)
	vs := stats.Replicas[victim]
	if vs.Counters.Catchups < 1 || vs.Counters.CatchupRecords < 1 {
		t.Fatalf("victim counters = %+v, want a completed catch-up with replayed records", vs.Counters)
	}
	if vs.Counters.Readmissions < 1 {
		t.Fatalf("victim counters = %+v, want >=1 readmission", vs.Counters)
	}
	if stats.Replog == nil || vs.AppliedLSN != stats.Replog.Head || vs.ReplogLag != 0 {
		t.Fatalf("victim applied=%d lag=%d, replog=%+v: want applied == head, lag 0",
			vs.AppliedLSN, vs.ReplogLag, stats.Replog)
	}
}

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/social"
)

// TestElasticJoinAndRetireUnderTraffic is the end-to-end resharding
// test: a 2-replica fleet with a replication log grows to 3 via the
// snapshot-bootstrapped join, then shrinks back by retiring a slot,
// with answers byte-identical to a reference service throughout and
// the joiner pre-warmed with exactly its ring slice.
func TestElasticJoinAndRetireUnderTraffic(t *testing.T) {
	front, pool, reps, _ := newCatchupFleet(t, 2, t.TempDir())
	ctx := context.Background()

	ref, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	const nUsers = 16
	user := func(i int) string { return fmt.Sprintf("u%d", i) }
	mutate := func(i int) {
		a, b := user(i), user((i+1)%nUsers)
		if err := front.Befriend(a, b, 0.9); err != nil {
			t.Fatalf("Befriend(%s,%s): %v", a, b, err)
		}
		if err := ref.Befriend(a, b, 0.9); err != nil {
			t.Fatal(err)
		}
		if err := front.Tag(b, "item"+b, "pizza"); err != nil {
			t.Fatalf("Tag(%s): %v", b, err)
		}
		if err := ref.Tag(b, "item"+b, "pizza"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nUsers; i++ {
		mutate(i)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}

	req := func(i int) search.Request {
		return search.Request{Seeker: user(i), Tags: []string{"pizza"}, K: 4, Mode: search.ModeExact}
	}
	checkAnswers := func(when string) {
		t.Helper()
		for i := 0; i < nUsers; i++ {
			want, err := ref.Do(ctx, req(i))
			if err != nil {
				t.Fatal(err)
			}
			got, err := front.Do(ctx, req(i))
			if err != nil {
				t.Fatalf("%s: Do(%s): %v", when, user(i), err)
			}
			if !reflect.DeepEqual(got.Results, want.Results) {
				t.Fatalf("%s: answers for %s diverge: got %+v want %+v", when, user(i), got.Results, want.Results)
			}
		}
	}
	checkAnswers("before join") // also makes horizons cache-resident

	// Grow 2 → 3: snapshot bootstrap, suffix catch-up, pre-warm, splice.
	joiner := newToggleReplica(t)
	epoch := front.FleetEpoch()
	oldRing := pool.Ring()
	slot, err := front.JoinReplica(ctx, joiner.ts.URL)
	if err != nil {
		t.Fatalf("JoinReplica: %v", err)
	}
	if slot != 2 {
		t.Fatalf("joiner slot = %d, want 2", slot)
	}
	if !pool.InRing(slot) || !pool.Live(slot) {
		t.Fatalf("joiner not live in-ring: inRing=%v live=%v", pool.InRing(slot), pool.Live(slot))
	}
	if got := front.FleetEpoch(); got <= epoch {
		t.Fatalf("epoch = %d after join, want > %d", got, epoch)
	}
	checkAnswers("after join")

	// The joiner was pre-warmed with its moved slice: any queried seeker
	// the grown ring hands to slot 2 must already be cache-resident there
	// (it was resident on its previous owner — checkAnswers saw to that).
	var queried []string
	for i := 0; i < nUsers; i++ {
		queried = append(queried, user(i))
	}
	movedToJoiner := shard.MovedKeys(oldRing, pool.Ring(), queried)[slot]
	if len(movedToJoiner) == 0 {
		t.Fatalf("no queried seeker moved to the joiner (vnode layout changed?)")
	}
	resident := make(map[string]bool)
	for _, n := range joiner.svc.CachedSeekers() {
		resident[n] = true
	}
	for _, n := range movedToJoiner {
		if !resident[n] {
			t.Fatalf("moved seeker %q not pre-warmed on the joiner (resident: %v)", n, joiner.svc.CachedSeekers())
		}
	}

	// Writes after the join reach the joiner through the heartbeat's
	// stream, like every member's.
	for i := 0; i < nUsers; i++ {
		mutate(i)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	checkAnswers("after post-join writes")

	// Shrink 3 → 2: retire slot 0, draining its cached slice to the ring
	// successors. While it is a member the prober sweeps it.
	lastProbe := func(slot int) time.Time {
		st := pool.state(slot)
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.lastProbe
	}
	waitFor(t, 5*time.Second, func() bool { return !lastProbe(0).IsZero() })
	epoch = front.FleetEpoch()
	if err := front.RetireReplica(ctx, 0); err != nil {
		t.Fatalf("RetireReplica: %v", err)
	}
	if !pool.Retired(0) || pool.InRing(0) || pool.Live(0) {
		t.Fatalf("slot 0 not fully retired: retired=%v inRing=%v live=%v", pool.Retired(0), pool.InRing(0), pool.Live(0))
	}
	if got := front.FleetEpoch(); got <= epoch {
		t.Fatalf("epoch = %d after retire, want > %d", got, epoch)
	}
	checkAnswers("after retire")

	// A retired slot stops receiving mutations: its cursor freezes while
	// the fleet keeps writing.
	frozen := reps[0].svc.AppliedLSN()
	for i := 0; i < nUsers; i++ {
		mutate(i)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := reps[0].svc.AppliedLSN(); got != frozen {
		t.Fatalf("retired replica cursor advanced %d → %d", frozen, got)
	}
	// Nor is it probed, or counted in the truncation barrier's minimum,
	// which its frozen cursor would otherwise pin.
	probed := lastProbe(0)
	time.Sleep(50 * time.Millisecond) // five probe intervals
	pool.probeAll()
	if !lastProbe(0).Equal(probed) {
		t.Fatal("retired slot still probed")
	}
	if got, head := pool.minApplied(), front.StatsAny().(Stats).Replog.Head; got != head || frozen >= head {
		t.Fatalf("minApplied = %d with head %d and the retired slot frozen at %d; want the head", got, head, frozen)
	}
	checkAnswers("after post-retire writes")

	st := front.StatsAny().(Stats)
	if len(st.Replicas) != 3 || !st.Replicas[0].Retired || st.Replicas[0].InRing || !st.Replicas[2].InRing {
		t.Fatalf("stats do not reflect the resize: %+v", st.Replicas)
	}
}

// TestJoinIdempotentByURL pins the retry contract: re-joining a URL
// that is already a member resumes (and, once joined, no-ops) instead
// of admitting a duplicate slot.
func TestJoinIdempotentByURL(t *testing.T) {
	front, pool, _, _ := newCatchupFleet(t, 2, t.TempDir())
	ctx := context.Background()
	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	joiner := newToggleReplica(t)
	slot1, err := front.JoinReplica(ctx, joiner.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	slot2, err := front.JoinReplica(ctx, joiner.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if slot1 != slot2 {
		t.Fatalf("re-join allocated a new slot: %d then %d", slot1, slot2)
	}
	if pool.Replicas() != 3 {
		t.Fatalf("replicas = %d after double join, want 3", pool.Replicas())
	}
}

// TestResizeWithoutReplogRefused pins the mode constraint: elastic
// resize needs the replication log (the joiner's bootstrap is snapshot
// + log suffix), so a log-less front-end refuses it.
func TestResizeWithoutReplogRefused(t *testing.T) {
	front, _, _, _ := newCatchupFleet(t, 2, "")
	if _, err := front.JoinReplica(context.Background(), "http://127.0.0.1:1"); err != ErrNoElasticLog {
		t.Fatalf("join without replog: %v, want ErrNoElasticLog", err)
	}
	if err := front.RetireReplica(context.Background(), 0); err != ErrNoElasticLog {
		t.Fatalf("retire without replog: %v, want ErrNoElasticLog", err)
	}
}

// TestFleetResizeEndpoint drives a join and a retire through the admin
// HTTP surface (POST /v2/fleet/resize) end to end.
func TestFleetResizeEndpoint(t *testing.T) {
	front, pool, _, _ := newCatchupFleet(t, 2, t.TempDir())
	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(front)
	if err != nil {
		t.Fatal(err)
	}
	admin := httptest.NewServer(srv)
	t.Cleanup(admin.Close)

	joiner := newToggleReplica(t)
	body := fmt.Sprintf(`{"join":[%q],"retire":[0]}`, joiner.ts.URL)
	resp, err := admin.Client().Post(admin.URL+"/v2/fleet/resize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.FleetResizeResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("resize status = %d (%+v)", resp.StatusCode, out)
	}
	if len(out.Joined) != 1 || out.Joined[0] != 2 || len(out.Retired) != 1 || out.Retired[0] != 0 {
		t.Fatalf("resize response = %+v", out)
	}
	if out.Epoch != pool.Epoch() || out.Epoch < 3 {
		t.Fatalf("epoch = %d (pool %d)", out.Epoch, pool.Epoch())
	}
	if !pool.InRing(2) || !pool.Retired(0) {
		t.Fatalf("topology after endpoint resize: inRing(2)=%v retired(0)=%v", pool.InRing(2), pool.Retired(0))
	}

	// The resized fleet still accepts writes and answers queries.
	if err := front.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		r, err := front.Do(context.Background(), search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact})
		return err == nil && len(r.Results) == 1 && r.Results[0].Item == "luigis"
	})
}

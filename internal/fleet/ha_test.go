package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/quorum"
	"repro/internal/server"
	"repro/internal/social"
	"repro/internal/wal"
)

// haFE is one HA front-end under test: Frontend + quorum.Node mounted
// behind a handler that can be yanked (everything answers 503, the
// node stops participating) to model a SIGKILLed process whose port
// stays allocated.
type haFE struct {
	id    string
	front *Frontend
	node  *quorum.Node
	ts    *httptest.Server

	mu   sync.Mutex
	h    http.Handler
	dead bool
}

func (fe *haFE) serve(w http.ResponseWriter, r *http.Request) {
	fe.mu.Lock()
	h := fe.h
	fe.mu.Unlock()
	if h == nil {
		http.Error(w, `{"error":"front-end killed"}`, http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// kill takes the front-end out of the fleet: HTTP surface answers 503
// and the quorum node stops voting, replicating and campaigning.
func (fe *haFE) kill() {
	fe.mu.Lock()
	fe.h = nil
	fe.dead = true
	fe.mu.Unlock()
	fe.front.Close()
}

// newHAFleet stands up n quorum front-ends over a shared replica set.
// Listeners exist before the nodes so the peer URL map is complete at
// quorum.Open time.
func newHAFleet(t *testing.T, n int, reps []*toggleReplica) []*haFE {
	t.Helper()
	fes := make([]*haFE, n)
	peers := make(map[string]string, n)
	for i := range fes {
		fe := &haFE{id: fmt.Sprintf("fe%d", i+1)}
		fe.ts = httptest.NewServer(http.HandlerFunc(fe.serve))
		t.Cleanup(fe.ts.Close)
		peers[fe.id] = fe.ts.URL
		fes[i] = fe
	}
	base := t.TempDir()
	for _, fe := range fes {
		fe := fe
		var clients []*Client
		for _, tr := range reps {
			clients = append(clients, newTestClient(t, tr.ts.URL, ClientConfig{}))
		}
		pool, err := NewPool(clients, PoolConfig{
			HealthInterval: 10 * time.Millisecond,
			FailAfter:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		bcast := NewBroadcaster(clients, BroadcasterConfig{Window: 2 * time.Millisecond})
		front, err := NewFrontend(pool, bcast)
		if err != nil {
			t.Fatal(err)
		}
		node, err := quorum.Open(quorum.Config{
			ID:              fe.id,
			Peers:           peers,
			Dir:             filepath.Join(base, fe.id),
			ElectionTimeout: 80 * time.Millisecond,
			Heartbeat:       20 * time.Millisecond,
			RPCTimeout:      500 * time.Millisecond,
			Logf:            t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := front.UseQuorum(node); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(front)
		if err != nil {
			t.Fatal(err)
		}
		srv.MountQuorum(node.Handler())
		fe.front, fe.node = front, node
		fe.mu.Lock()
		fe.h = srv
		fe.mu.Unlock()
		node.Start()
		t.Cleanup(func() {
			fe.mu.Lock()
			dead := fe.dead
			fe.mu.Unlock()
			if !dead {
				front.Close()
			}
		})
	}
	return fes
}

// waitHALeader waits for the live front-ends to converge on exactly
// one leader and returns it.
func waitHALeader(t *testing.T, fes []*haFE) *haFE {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var leader *haFE
		agreed := true
		count := 0
		for _, fe := range fes {
			fe.mu.Lock()
			dead := fe.dead
			fe.mu.Unlock()
			if dead {
				continue
			}
			if fe.node.IsLeader() {
				count++
				leader = fe
			}
		}
		if count == 1 {
			id := leader.id
			for _, fe := range fes {
				fe.mu.Lock()
				dead := fe.dead
				fe.mu.Unlock()
				if dead || fe == leader {
					continue
				}
				if got, _ := fe.node.Leader(); got != id {
					agreed = false
				}
			}
			if agreed {
				return leader
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no single agreed leader within 10s")
	return nil
}

// committedLog flattens a node's committed prefix for byte-level
// comparison across survivors.
func committedLog(t *testing.T, n *quorum.Node) []string {
	t.Helper()
	var out []string
	if _, err := n.ReadCommitted(1, func(rec wal.Record) error {
		out = append(out, fmt.Sprintf("%d/%d/%x", rec.LSN, rec.Type, rec.Data))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitReplicaConvergence polls until every replica's applied cursor
// reaches lsn.
func waitReplicaConvergence(t *testing.T, reps []*toggleReplica, lsn uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, tr := range reps {
			if tr.svc.AppliedLSN() < lsn {
				done = false
			}
		}
		if done {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i, tr := range reps {
		t.Logf("replica %d cursor = %d, want %d", i, tr.svc.AppliedLSN(), lsn)
	}
	t.Fatal("replicas did not converge within 10s")
}

// haWrite sends one plain front-door mutation to the HA front-ends the
// way any 307-following HTTP client does: Go's default client re-sends
// the body to the leader a follower names. A refused attempt — a dead
// front-end, a follower that names no leader yet or a dead one — moves
// on to the next front-end until the election settles.
func haWrite(t *testing.T, fes []*haFE, path string, body interface{}) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i = (i + 1) % len(fes) {
		resp, err := http.Post(fes[i].ts.URL+path, "application/json", bytes.NewReader(raw))
		if err == nil {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusNoContent:
				return
			case resp.StatusCode < 500 && resp.StatusCode != http.StatusTemporaryRedirect:
				t.Fatalf("POST %s %s: status %d %s", path, raw, resp.StatusCode, msg)
			}
			err = fmt.Errorf("status %d %s", resp.StatusCode, msg)
		}
		if time.Now().After(deadline) {
			t.Fatalf("POST %s %s: no front-end accepted the write: %v", path, raw, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHAFleetSurvivesLeaderKill is the tentpole end-to-end: a 3-FE/3-
// replica fleet takes writes through a 307-following client, loses its
// leader mid-stream, elects a successor, keeps accepting writes, and
// ends with every acked mutation applied on every replica and the two
// survivors holding byte-identical committed quorum logs.
func TestHAFleetSurvivesLeaderKill(t *testing.T) {
	var reps []*toggleReplica
	for i := 0; i < 3; i++ {
		reps = append(reps, newToggleReplica(t))
	}
	fes := newHAFleet(t, 3, reps)
	leader := waitHALeader(t, fes)

	haWrite(t, fes, "/v1/friend", server.FriendRequest{A: "alice", B: "bob", Weight: 0.9})
	const before, after = 12, 12
	for i := 0; i < before; i++ {
		haWrite(t, fes, "/v1/tag", server.TagRequest{User: "bob", Item: fmt.Sprintf("item%02d", i), Tag: "good"})
	}

	leader.kill()
	t.Logf("killed leader %s", leader.id)

	// Acked writes must keep landing across the election; the writer
	// rides out the window by retrying.
	for i := before; i < before+after; i++ {
		haWrite(t, fes, "/v1/tag", server.TagRequest{User: "bob", Item: fmt.Sprintf("item%02d", i), Tag: "good"})
	}
	successor := waitHALeader(t, fes)
	if successor == leader {
		t.Fatal("dead leader still leading")
	}

	// No acked LSN lost: every replica applies through the successor's
	// commit point, and the survivors' committed logs are identical.
	commit := successor.node.CommitLSN()
	waitReplicaConvergence(t, reps, commit)
	var survivors []*haFE
	for _, fe := range fes {
		if fe != leader {
			survivors = append(survivors, fe)
		}
	}
	// A follower learns the commit index one heartbeat behind the
	// leader; wait for the indices to meet before comparing prefixes.
	convergeBy := time.Now().Add(5 * time.Second)
	for survivors[0].node.CommitLSN() != survivors[1].node.CommitLSN() {
		if time.Now().After(convergeBy) {
			t.Fatalf("survivor commit indices never met: %d vs %d",
				survivors[0].node.CommitLSN(), survivors[1].node.CommitLSN())
		}
		time.Sleep(10 * time.Millisecond)
	}
	logA := committedLog(t, survivors[0].node)
	logB := committedLog(t, survivors[1].node)
	if !reflect.DeepEqual(logA, logB) {
		t.Fatalf("survivor committed logs diverge:\n%s: %v\n%s: %v",
			survivors[0].id, logA, survivors[1].id, logB)
	}

	// Byte-identical serving: every replica holds the same users, and
	// any surviving front-end answers reads that see them.
	want := reps[0].svc.Users()
	sort.Strings(want)
	for i, tr := range reps[1:] {
		got := tr.svc.Users()
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replica %d users %v != replica 0 users %v", i+1, got, want)
		}
	}
	users, err := newTestClient(t, survivors[0].ts.URL, ClientConfig{Timeout: 2 * time.Second}).Users(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, u := range users {
		if u == "bob" {
			found = true
		}
	}
	if !found {
		t.Fatalf("survivor %s Users() = %v, missing bob", survivors[0].id, users)
	}
}

// TestHAClientFollowsRedirect pins the write-routing contract: a write
// aimed at a follower is answered with the leader's address, and a
// plain redirect-following client lands it in the leader's log.
func TestHAClientFollowsRedirect(t *testing.T) {
	var reps []*toggleReplica
	for i := 0; i < 2; i++ {
		reps = append(reps, newToggleReplica(t))
	}
	fes := newHAFleet(t, 3, reps)
	leader := waitHALeader(t, fes)

	leaderIdx, followerIdx := -1, -1
	for i, fe := range fes {
		if fe == leader {
			leaderIdx = i
		} else if followerIdx == -1 {
			followerIdx = i
		}
	}

	// The raw per-FE client surfaces the redirect as NotLeaderError
	// naming the leader.
	follower := newTestClient(t, fes[followerIdx].ts.URL, ClientConfig{Timeout: 2 * time.Second})
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := follower.Befriend(context.Background(), "x", "y", 0.5, 0)
		nle, ok := err.(*quorum.NotLeaderError)
		if ok && nle.LeaderURL == fes[leaderIdx].ts.URL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower write error = %v, want NotLeaderError naming %s", err, fes[leaderIdx].ts.URL)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A plain POST aimed at the follower follows the 307: the write
	// lands in the leader's log.
	head := leader.node.Head()
	body := []byte(`{"a":"carol","b":"dave","weight":0.7}`)
	resp, err := http.Post(fes[followerIdx].ts.URL+"/v1/friend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("redirect-following POST to follower %s: status %d, want 204", fes[followerIdx].id, resp.StatusCode)
	}
	var landed []string
	if _, err := leader.node.ReadCommitted(head+1, func(rec wal.Record) error {
		if m, err := durable.DecodeMutation(rec); err == nil && m.Kind == social.KindBefriend {
			landed = append(landed, m.User+"-"+m.Friend)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(landed, "carol-dave") {
		t.Fatalf("leader %s log past lsn %d holds befriends %v, want carol-dave", leader.id, head, landed)
	}
}

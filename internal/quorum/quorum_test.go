package quorum

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/wal"
)

// swapHandler lets the httptest server exist before the node it
// serves (peer URLs must be known to build the node's config).
type swapHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = h
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	h := s.h
	s.mu.RUnlock()
	if h == nil {
		http.Error(w, "node not up", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

type cluster struct {
	t       *testing.T
	ids     []string
	peers   map[string]string
	dirs    map[string]string
	servers map[string]*httptest.Server
	swaps   map[string]*swapHandler

	mu    sync.Mutex
	nodes map[string]*Node
}

// newCluster starts n nodes; seed, when set, first writes each node's
// log directory (a promoted single-front-end log).
func newCluster(t *testing.T, n int, seed func(dir string)) *cluster {
	t.Helper()
	c := &cluster{
		t:       t,
		peers:   make(map[string]string),
		dirs:    make(map[string]string),
		servers: make(map[string]*httptest.Server),
		swaps:   make(map[string]*swapHandler),
		nodes:   make(map[string]*Node),
	}
	root := t.TempDir()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("fe%d", i+1)
		c.ids = append(c.ids, id)
		sw := &swapHandler{}
		srv := httptest.NewServer(sw)
		t.Cleanup(srv.Close)
		c.swaps[id] = sw
		c.servers[id] = srv
		c.peers[id] = srv.URL
		c.dirs[id] = filepath.Join(root, id)
	}
	for _, id := range c.ids {
		if seed != nil {
			seed(c.dirs[id])
		}
		c.start(id)
	}
	t.Cleanup(func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		for _, nd := range c.nodes {
			nd.Close()
		}
	})
	return c
}

func (c *cluster) config(id string) Config {
	return Config{
		ID:              id,
		Peers:           c.peers,
		Dir:             c.dirs[id],
		ElectionTimeout: 60 * time.Millisecond,
		Heartbeat:       15 * time.Millisecond,
		RPCTimeout:      250 * time.Millisecond,
		Logf:            c.t.Logf,
	}
}

// start opens and starts the node for id (initial boot or restart).
func (c *cluster) start(id string) *Node {
	c.t.Helper()
	nd, err := Open(c.config(id))
	if err != nil {
		c.t.Fatalf("Open(%s): %v", id, err)
	}
	c.swaps[id].set(nd.Handler())
	nd.Start()
	c.mu.Lock()
	c.nodes[id] = nd
	c.mu.Unlock()
	return nd
}

// kill simulates a process SIGKILL: the HTTP surface goes dark and the
// node stops participating. The on-disk state survives for a restart.
func (c *cluster) kill(id string) {
	c.t.Helper()
	c.swaps[id].set(nil)
	c.mu.Lock()
	nd := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	if nd != nil {
		nd.Close()
	}
}

func (c *cluster) node(id string) *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodes[id]
}

// waitLeader blocks until exactly one live node is leader and every
// live node agrees on it, returning its id.
func (c *cluster) waitLeader() string {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		var leaders []string
		agreed := true
		var want string
		for id, nd := range c.nodes {
			if nd.IsLeader() {
				leaders = append(leaders, id)
			}
			lid, _ := nd.Leader()
			if want == "" {
				want = lid
			}
			if lid == "" || lid != want {
				agreed = false
			}
		}
		c.mu.Unlock()
		if len(leaders) == 1 && agreed && want == leaders[0] {
			return leaders[0]
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.t.Fatal("no stable leader elected within 5s")
	return ""
}

// committedPayloads reads the node's committed prefix as strings,
// skipping term records.
func committedPayloads(t *testing.T, nd *Node) []string {
	t.Helper()
	var out []string
	_, err := nd.ReadCommitted(1, func(rec wal.Record) error {
		if rec.Type != durable.RecTerm {
			out = append(out, string(rec.Data))
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ReadCommitted: %v", err)
	}
	return out
}

func appendN(t *testing.T, nd *Node, prefix string, n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		payload := fmt.Sprintf("%s-%d", prefix, i)
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		_, err := nd.Append(ctx, 1, []byte(payload))
		cancel()
		if err != nil {
			t.Fatalf("Append(%s): %v", payload, err)
		}
		out = append(out, payload)
	}
	return out
}

func wantPayloads(t *testing.T, nd *Node, id string, want []string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		got := committedPayloads(t, nd)
		if len(got) == len(want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s: committed record %d = %q, want %q", id, i, got[i], want[i])
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d committed records, want %d", id, len(got), len(want))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestSingleNodeElectsAndCommits(t *testing.T) {
	c := newCluster(t, 1, nil)
	id := c.waitLeader()
	nd := c.node(id)
	want := appendN(t, nd, "solo", 5)
	wantPayloads(t, nd, id, want)
	if commit, head := nd.CommitLSN(), nd.Head(); commit != head {
		t.Fatalf("commit %d != head %d on single node", commit, head)
	}
}

func TestThreeNodeReplicationConverges(t *testing.T) {
	c := newCluster(t, 3, nil)
	leader := c.waitLeader()
	want := appendN(t, c.node(leader), "rec", 20)
	for _, id := range c.ids {
		wantPayloads(t, c.node(id), id, want)
	}
	// A write addressed to a follower must redirect to the leader.
	for _, id := range c.ids {
		if id == leader {
			continue
		}
		_, err := c.node(id).Append(context.Background(), 1, []byte("x"))
		nle, ok := err.(*NotLeaderError)
		if !ok {
			t.Fatalf("follower append: got %v, want NotLeaderError", err)
		}
		if nle.LeaderURL != c.peers[leader] {
			t.Fatalf("redirect points at %q, want %q", nle.LeaderURL, c.peers[leader])
		}
	}
}

func TestLeaderDeathFailsOver(t *testing.T) {
	c := newCluster(t, 3, nil)
	first := c.waitLeader()
	want := appendN(t, c.node(first), "pre", 10)
	c.kill(first)
	second := c.waitLeader()
	if second == first {
		t.Fatalf("dead node %s re-elected", first)
	}
	want = append(want, appendN(t, c.node(second), "post", 10)...)
	for _, id := range c.ids {
		if id == first {
			continue
		}
		wantPayloads(t, c.node(id), id, want)
	}
	// The dead node restarts, rejoins as follower, and converges.
	restarted := c.start(first)
	deadline := time.Now().Add(3 * time.Second)
	for restarted.CommitLSN() < c.node(second).CommitLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("restarted %s stuck at commit %d < %d", first, restarted.CommitLSN(), c.node(second).CommitLSN())
		}
		time.Sleep(10 * time.Millisecond)
	}
	wantPayloads(t, restarted, first, want)
}

func TestUncommittedSuffixIsTruncated(t *testing.T) {
	c := newCluster(t, 3, nil)
	leader := c.waitLeader()
	want := appendN(t, c.node(leader), "base", 5)
	for _, id := range c.ids {
		wantPayloads(t, c.node(id), id, want)
	}
	oldTerm := c.node(leader).Term()

	// The leader dies with unreplicated appends in its tail: fabricate
	// them straight into its log on disk under its own term, exactly
	// what a crash between local append and majority ack leaves
	// behind.
	c.kill(leader)
	orphan, err := openQLog(c.dirs[leader], termSpan{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orphan.append(oldTerm, 1, []byte("orphan-1")); err != nil {
		t.Fatal(err)
	}
	if _, err := orphan.append(oldTerm, 1, []byte("orphan-2")); err != nil {
		t.Fatal(err)
	}
	if err := orphan.close(); err != nil {
		t.Fatal(err)
	}

	// The survivors elect a successor (higher term) and move on.
	successor := c.waitLeader()
	if successor == leader {
		t.Fatalf("dead node %s re-elected", leader)
	}
	want = append(want, appendN(t, c.node(successor), "live", 5)...)

	// The old leader rejoins: its orphan suffix conflicts with the
	// successor's history and must be truncated away, never served.
	restarted := c.start(leader)
	wantPayloads(t, restarted, leader, want)
	for _, p := range committedPayloads(t, restarted) {
		if p == "orphan-1" || p == "orphan-2" {
			t.Fatal("orphaned uncommitted record survived rejoin")
		}
	}
}

// TestTracedAppendCarriesFollowerSpans pins the satellite contract for
// distributed tracing across replication: a mutation appended under a
// sampled trace gets its followers' durable-append legs merged back
// into the originating trace — even though the replication pushes run
// on detached per-peer goroutines that never see the request context —
// so /debug/traces/{id} shows the full quorum picture.
func TestTracedAppendCarriesFollowerSpans(t *testing.T) {
	c := newCluster(t, 3, nil)
	lead := c.node(c.waitLeader())

	tr := obs.NewTracer(obs.Config{Node: "front", SampleEvery: 1})
	ctx, rq := tr.StartRequest(context.Background(), "", "POST", "/v1/friend")
	if !rq.Sampled() {
		t.Fatal("SampleEvery=1 request not sampled")
	}
	appendCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
	defer cancel()
	if _, err := lead.Append(appendCtx, 1, []byte("edge alice bob")); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Commit requires a majority, and the leader merges a follower's
	// spans before it counts that follower's ack toward commit — so by
	// the time Append returns, at least one follower span is merged.
	info := rq.Finish(200)
	if info.TraceID == "" {
		t.Fatal("finished request has no trace id")
	}

	rec, ok := tr.TraceByID(info.TraceID)
	if !ok {
		t.Fatalf("trace %s not in the flight recorder", info.TraceID)
	}
	var followerNodes []string
	for _, sp := range rec.Spans {
		if sp.Name != "quorum.follower.append" {
			continue
		}
		followerNodes = append(followerNodes, sp.Node)
		if sp.ParentID == "" {
			t.Fatalf("follower span %+v not parented under the mutation's span", sp)
		}
		var hasLSN bool
		for _, a := range sp.Attrs {
			if a.Key == "lsn" && a.Value != "" && a.Value != "0" {
				hasLSN = true
			}
		}
		if !hasLSN {
			t.Fatalf("follower span %+v carries no lsn attr", sp)
		}
	}
	if len(followerNodes) == 0 {
		t.Fatalf("no follower replication spans in the trace (spans: %+v)", rec.Spans)
	}
	for _, node := range followerNodes {
		if node == "" || c.node(node) == nil {
			t.Fatalf("follower span from unknown node %q", node)
		}
		if nd := c.node(node); nd.IsLeader() {
			t.Fatalf("replication span attributed to the leader %q", node)
		}
	}

	// An untraced append stays off the traced plumbing: nothing is
	// parked in the pending map once it returns.
	plainCtx, cancel2 := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel2()
	if _, err := lead.Append(plainCtx, 1, []byte("edge bob carol")); err != nil {
		t.Fatalf("untraced Append: %v", err)
	}
	lead.mu.Lock()
	pending := len(lead.traced)
	lead.mu.Unlock()
	if pending != 0 {
		t.Fatalf("traced-append map holds %d entries after appends returned", pending)
	}
}

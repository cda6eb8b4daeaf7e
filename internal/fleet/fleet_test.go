package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/social"
)

// newReplica builds one in-process replica: a social service in fleet
// replica posture (manual compaction) behind the real HTTP server.
func newReplica(t *testing.T) (*social.Service, *httptest.Server) {
	t.Helper()
	cfg := social.DefaultServiceConfig()
	cfg.AutoCompactEvery = 1 << 30 // broadcast is the compaction heartbeat
	svc, err := social.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return svc, ts
}

// useTempRepLog attaches a fresh replication log in a test directory.
func useTempRepLog(t *testing.T, front *Frontend) {
	t.Helper()
	rl, err := OpenRepLog(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := front.UseRepLog(rl); err != nil {
		t.Fatal(err)
	}
}

func newTestClient(t *testing.T, url string, cfg ClientConfig) *Client {
	t.Helper()
	c, err := NewClient(url, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestClientValidation(t *testing.T) {
	if _, err := NewClient("", ClientConfig{}); err == nil {
		t.Error("empty URL accepted")
	}
	if _, err := NewClient("localhost:8080", ClientConfig{}); err == nil {
		t.Error("schemeless URL accepted")
	}
	if _, err := NewClient("http://x", ClientConfig{Timeout: -time.Second}); err == nil {
		t.Error("negative timeout accepted")
	}
}

// TestClientRoundTrip drives a real replica over the wire: mutations
// apply, an apply page asking for the fold compacts, searches answer,
// and explain survives the JSON round trip.
func TestClientRoundTrip(t *testing.T) {
	_, ts := newReplica(t)
	c := newTestClient(t, ts.URL, ClientConfig{})
	ctx := context.Background()

	if _, err := c.Befriend(ctx, "alice", "bob", 0.9, 1); err != nil {
		t.Fatal(err)
	}
	if ack, err := c.Tag(ctx, "bob", "luigis", "pizza", 2); err != nil || ack != 2 {
		t.Fatalf("stamped tag ack = %d, %v; want cursor 2", ack, err)
	}
	// An unstamped mutation (a client's, as cmd/loadtest sends) is
	// answered 204 with no cursor to report.
	if ack, err := c.Tag(ctx, "bob", "marios", "pasta", 0); err != nil || ack != 0 {
		t.Fatalf("plain tag = cursor %d, %v; want 0, nil", ack, err)
	}
	// Before the heartbeat the writes are pending, not queryable; a page
	// asking for the fold (here one skip record) folds them in.
	if ack, err := deliver(ctx, c, []social.Mutation{{LSN: 3}}, true); err != nil || ack != 3 {
		t.Fatalf("fold page ack = %d, %v; want cursor 3", ack, err)
	}
	resp, err := c.Do(ctx, search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact, Explain: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Item != "luigis" {
		t.Fatalf("results = %+v, want luigis", resp.Results)
	}
	if resp.Explain == nil || resp.Explain.Mode != "exact" {
		t.Fatalf("explain = %+v, want mode=exact", resp.Explain)
	}

	users, err := c.Users(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 2 {
		t.Fatalf("users = %v, want alice+bob", users)
	}
	if _, err := c.Healthz(ctx); err != nil {
		t.Fatal(err)
	}

	// Batch: one good query, one per-query error.
	out := c.DoBatch(ctx, []search.Request{
		{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact},
		{Seeker: "nobody", Tags: []string{"pizza"}, K: 3},
	})
	if out[0].Err != nil || len(out[0].Response.Results) != 1 {
		t.Fatalf("batch[0] = %+v", out[0])
	}
	if out[1].Err == nil {
		t.Fatal("batch[1]: unknown seeker did not error")
	}
}

// TestClientSearchWireGolden pins the bytes the client puts on the hop
// for a fixed search.Request, single and batched: the request types
// are the server's own, and a change to either end's tags shows here.
func TestClientSearchWireGolden(t *testing.T) {
	var got []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		got = append(got, r.URL.Path+" "+string(body))
		w.Write([]byte(`{"results":[]}`))
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, ClientConfig{})
	beta := 0.25
	full := search.Request{
		Seeker: "alice", Tags: []string{"pizza", "pasta"}, K: 3, Beta: &beta, Mode: search.ModeExact,
		MinScore: 0.5, Offset: 2, NoCache: true, MaxCacheAgeMS: 1500, Explain: true,
	}
	bare := search.Request{Seeker: "bob"}
	ctx := context.Background()
	c.Do(ctx, full)
	c.Do(ctx, bare)
	c.DoBatch(ctx, []search.Request{full, bare})
	const fullJSON = `{"seeker":"alice","tags":["pizza","pasta"],"k":3,"beta":0.25,"mode":"exact",` +
		`"min_score":0.5,"offset":2,"no_cache":true,"max_cache_age_ms":1500,"explain":true}`
	const bareJSON = `{"seeker":"bob","tags":null,"k":0,"mode":"auto"}`
	want := []string{
		"/v2/search " + fullJSON,
		"/v2/search " + bareJSON,
		`/v2/search/batch {"queries":[` + fullJSON + `,` + bareJSON + `]}`,
	}
	if !slices.Equal(got, want) {
		t.Fatalf("wire bytes:\n got %q\nwant %q", got, want)
	}
}

// TestClientErrorClassification pins the wire→error mapping that
// failover depends on: 400 is ErrInvalid (never failover-eligible),
// 5xx and connection failures are ErrUnavailable.
func TestClientErrorClassification(t *testing.T) {
	_, ts := newReplica(t)
	c := newTestClient(t, ts.URL, ClientConfig{})
	ctx := context.Background()

	_, err := c.Do(ctx, search.Request{Seeker: "ghost", Tags: []string{"x"}})
	if !errors.Is(err, search.ErrInvalid) {
		t.Fatalf("unknown user error = %v, want ErrInvalid", err)
	}
	if errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("unknown user error %v must not be failover-eligible", err)
	}

	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"internal"}`, http.StatusInternalServerError)
	}))
	defer boom.Close()
	cb := newTestClient(t, boom.URL, ClientConfig{})
	if _, err := cb.Do(ctx, search.Request{Seeker: "a", Tags: []string{"x"}}); !errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("500 error = %v, want ErrUnavailable", err)
	}

	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // connection refused from here on
	cd := newTestClient(t, dead.URL, ClientConfig{})
	if _, err := cd.Do(ctx, search.Request{Seeker: "a", Tags: []string{"x"}}); !errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("conn-refused error = %v, want ErrUnavailable", err)
	}
	if _, err := cd.Healthz(ctx); !errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("healthz error = %v, want ErrUnavailable", err)
	}

	// Client cancellation is the caller's, not the replica's, fault.
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer slow.Close()
	defer close(release)
	cs := newTestClient(t, slow.URL, ClientConfig{})
	cctx, cancel := context.WithCancel(ctx)
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	if _, err := cs.Do(cctx, search.Request{Seeker: "a", Tags: []string{"x"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request error = %v, want context.Canceled", err)
	}
}

// TestClientClassifiesEveryCall: the calls outside the search path share
// post's classification — a request the replica refuses as invalid is
// ErrInvalid, never the failover class — and a refusal of a GET still
// reads as unavailable.
func TestClientClassifiesEveryCall(t *testing.T) {
	_, ts := newReplica(t)
	c := newTestClient(t, ts.URL, ClientConfig{})
	ctx := context.Background()
	seekers := make([]string, server.MaxWarmSeekers+1)
	for i := range seekers {
		seekers[i] = "s"
	}
	_, err := c.WarmSeekers(ctx, seekers)
	if !errors.Is(err, search.ErrInvalid) || errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("warming %d seekers: %v, want ErrInvalid", len(seekers), err)
	}
	boom := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"internal"}`, http.StatusInternalServerError)
	}))
	defer boom.Close()
	cb := newTestClient(t, boom.URL, ClientConfig{})
	if _, err := cb.Users(ctx); !errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("users on a 500: %v, want ErrUnavailable", err)
	}
	if _, _, err := cb.SnapshotReader(ctx); !errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("snapshot export on a 500: %v, want ErrUnavailable", err)
	}
}

// TestClientHedging holds the first attempt hostage and checks the
// hedge answers, and that the counters record it.
func TestClientHedging(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(400 * time.Millisecond) // only the first attempt is slow
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]interface{}{
			"results": []map[string]interface{}{{"item": "x", "score": 1.0}},
		})
	}))
	defer ts.Close()
	c := newTestClient(t, ts.URL, ClientConfig{HedgeDelay: 30 * time.Millisecond})
	resp, err := c.Do(context.Background(), search.Request{Seeker: "a", Tags: []string{"x"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Item != "x" {
		t.Fatalf("results = %+v", resp.Results)
	}
	snap := c.Counters().Snapshot()
	if snap.HedgesLaunched != 1 || snap.HedgesWon != 1 {
		t.Fatalf("hedge counters = %+v, want launched=1 won=1", snap)
	}
}

// TestPoolFailover kills the replica owning a seeker and checks the
// query spills to a live one, health state ejects the dead replica, and
// the stats say so.
func TestPoolFailover(t *testing.T) {
	ctx := context.Background()
	var svcs []*social.Service
	var servers []*httptest.Server
	var clients []*Client
	for i := 0; i < 3; i++ {
		svc, ts := newReplica(t)
		svcs = append(svcs, svc)
		servers = append(servers, ts)
		clients = append(clients, newTestClient(t, ts.URL, ClientConfig{}))
	}
	pool, err := NewPool(clients, PoolConfig{HealthInterval: -1, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	// Seed every replica identically and make it queryable.
	for _, svc := range svcs {
		if err := svc.Befriend("alice", "bob", 0.9); err != nil {
			t.Fatal(err)
		}
		if err := svc.Tag("bob", "luigis", "pizza"); err != nil {
			t.Fatal(err)
		}
		if err := svc.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	req := search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact}
	if _, err := pool.Do(ctx, req); err != nil {
		t.Fatal(err)
	}

	owner := pool.ReplicaFor("alice")
	servers[owner].Close()
	resp, err := pool.Do(ctx, req)
	if err != nil {
		t.Fatalf("failover Do: %v", err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Item != "luigis" {
		t.Fatalf("failover results = %+v", resp.Results)
	}
	if pool.Live(owner) {
		t.Fatal("dead owner still live after FailAfter=1 failure")
	}
	stats := pool.Stats()
	if stats[owner].Counters.Ejections != 1 {
		t.Fatalf("owner stats = %+v, want 1 ejection", stats[owner])
	}
	spilled := false
	for i, rs := range stats {
		if i != owner && rs.Counters.Failovers > 0 {
			spilled = true
		}
	}
	if !spilled {
		t.Fatalf("no survivor recorded a failover: %+v", stats)
	}

	// Batches spill too, with every entry answered.
	out := pool.DoBatch(ctx, []search.Request{req, req, req})
	for i, br := range out {
		if br.Err != nil {
			t.Fatalf("batch[%d] after failover: %v", i, br.Err)
		}
	}

	// All replicas down: the error is the unavailable class (503 on the
	// wire), not a silent empty answer.
	for i, ts := range servers {
		if i != owner {
			ts.Close()
		}
	}
	if _, err := pool.Do(ctx, req); !errors.Is(err, search.ErrUnavailable) {
		t.Fatalf("all-dead Do error = %v, want ErrUnavailable", err)
	}
}

// TestPoolProber checks the background /healthz sweep ejects a dead
// replica and re-admits it when it returns.
func TestPoolProber(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte("ok\n"))
	}))
	defer ts.Close()
	pool, err := NewPool(
		[]*Client{newTestClient(t, ts.URL, ClientConfig{})},
		PoolConfig{HealthInterval: 10 * time.Millisecond, FailAfter: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	healthy.Store(false)
	waitFor(t, time.Second, func() bool { return !pool.Live(0) })
	healthy.Store(true)
	waitFor(t, time.Second, func() bool { return pool.Live(0) })
	snap := pool.Stats()[0].Counters
	if snap.Ejections < 1 || snap.Readmissions < 1 {
		t.Fatalf("counters = %+v, want >=1 ejection and readmission", snap)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestBroadcasterCoalesces pins what one heartbeat costs each replica:
// notes within the window ride one heartbeat, which sends nothing to a
// replica already at the bound; and a burst of up to
// server.MaxReplogPageRecords records rides exactly one /v2/apply
// request per replica, which asks for the fold — sent early once the
// Befriend count fills, tags not counting.
func TestBroadcasterCoalesces(t *testing.T) {
	// start builds a two-replica front-end with a replication log.
	start := func(cfg BroadcasterConfig) (*Frontend, []*toggleReplica) {
		var reps []*toggleReplica
		var clients []*Client
		for i := 0; i < 2; i++ {
			tr := newToggleReplica(t)
			reps = append(reps, tr)
			clients = append(clients, newTestClient(t, tr.ts.URL, ClientConfig{}))
		}
		pool, err := NewPool(clients, PoolConfig{HealthInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		front, err := NewFrontend(pool, NewBroadcaster(clients, cfg))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(front.Close)
		useTempRepLog(t, front)
		return front, reps
	}
	seen := func(reps []*toggleReplica) (n int) {
		for _, r := range reps {
			n += len(r.appliesSeen())
		}
		return n
	}

	front, reps := start(BroadcasterConfig{Window: 20 * time.Millisecond})
	for i := 0; i < 10; i++ {
		front.bcast.NoteWrite(true)
		front.bcast.NoteWrite(false)
	}
	waitFor(t, time.Second, func() bool { return front.bcast.Stats().Counters.Batches > 0 })
	time.Sleep(50 * time.Millisecond)
	if st := front.bcast.Stats(); st.Counters.Batches != 1 || st.Counters.Failures != 0 || st.LagMS != 0 {
		t.Fatalf("stats = %+v, want one heartbeat for the burst (coalescing), no failure, no lag", st)
	}
	if n := seen(reps); n != 0 {
		t.Fatalf("a heartbeat with no records owed sent %d requests, want 0", n)
	}

	// Early flush: under a window that never elapses in this test, the
	// heartbeat goes out once MaxBatchEdges Befriends were noted.
	front, reps = start(BroadcasterConfig{Window: time.Hour, MaxBatchEdges: 3})
	const records = server.MaxReplogPageRecords
	for _, err := range []error{front.Befriend("u0", "u1", 0.5), front.Befriend("u1", "u2", 0.5)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < records-3; i++ {
		if err := front.Tag(fmt.Sprintf("u%d", i%3), fmt.Sprintf("i%d", i), "t0"); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	if n := seen(reps); n != 0 {
		t.Fatalf("%d requests below the Befriend bound, want 0", n)
	}
	if err := front.Befriend("u2", "u0", 0.5); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return front.pool.state(0).applied() == records && front.pool.state(1).applied() == records
	})
	for i, r := range reps {
		pages := r.appliesSeen()
		if len(pages) != 1 {
			t.Fatalf("replica %d received %d requests for %d records, want 1", i, len(pages), records)
		}
		var page server.ApplyRequest
		if err := json.Unmarshal([]byte(pages[0]), &page); err != nil {
			t.Fatal(err)
		}
		if !page.Fold || len(page.Records) != records {
			t.Fatalf("replica %d page: fold %v, %d records; want the fold and all %d records", i, page.Fold, len(page.Records), records)
		}
		if st := r.svc.Stats(); st.PendingWrites != 0 {
			t.Fatalf("replica %d stats = %+v, want nothing pending", i, st)
		}
	}
	if st := front.bcast.Stats(); st.Counters.Batches != 1 || st.Counters.Failures != 0 {
		t.Fatalf("stats = %+v, want the one early heartbeat", st)
	}
}

// TestFrontendMutationsAndStats drives the full glue: mutations commit
// to the log, the heartbeat streams them to every replica and makes
// them queryable, and StatsAny reports per-replica and broadcast
// counters.
func TestFrontendMutationsAndStats(t *testing.T) {
	var svcs []*social.Service
	var clients []*Client
	for i := 0; i < 3; i++ {
		svc, ts := newReplica(t)
		svcs = append(svcs, svc)
		clients = append(clients, newTestClient(t, ts.URL, ClientConfig{}))
	}
	pool, err := NewPool(clients, PoolConfig{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	bcast := NewBroadcaster(clients, BroadcasterConfig{Window: 5 * time.Millisecond})
	front, err := NewFrontend(pool, bcast)
	if err != nil {
		t.Fatal(err)
	}
	defer front.Close()
	useTempRepLog(t, front)

	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := front.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, svc := range svcs {
		st := svc.Stats()
		if st.Users != 2 || st.PendingWrites != 0 {
			t.Fatalf("replica %d stats = %+v, want 2 users, 0 pending", i, st)
		}
	}
	resp, err := front.Do(context.Background(), search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].Item != "luigis" {
		t.Fatalf("results = %+v", resp.Results)
	}
	if got := front.Users(); len(got) != 2 {
		t.Fatalf("users = %v", got)
	}

	stats, ok := front.StatsAny().(Stats)
	if !ok {
		t.Fatalf("StatsAny returned %T", front.StatsAny())
	}
	if len(stats.Replicas) != 3 {
		t.Fatalf("stats replicas = %d", len(stats.Replicas))
	}
	if stats.Broadcast.Counters.Batches < 1 {
		t.Fatalf("broadcast stats = %+v, want >=1 batch", stats.Broadcast)
	}

	// An invalid mutation is rejected without partial effects.
	if err := front.Befriend("", "x", 0.5); err == nil {
		t.Fatal("invalid befriend accepted")
	}
}

// TestClientReusesOneConnection: a 2xx body is read to its end before
// it is closed, so the transport keeps the connection — also for a
// batch answer, which is long enough to go out chunked and so has a
// terminating chunk past the JSON value's closing brace. Fifty RPCs of
// either kind open one connection.
func TestClientReusesOneConnection(t *testing.T) {
	svc, _ := newReplica(t)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	ctx := context.Background()
	seed := newTestClient(t, ts.URL, ClientConfig{})
	if _, err := seed.Befriend(ctx, "alice", "bob", 0.9, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := seed.Tag(ctx, "bob", "luigis", "pizza", 2); err != nil {
		t.Fatal(err)
	}
	if err := svc.Flush(); err != nil {
		t.Fatal(err)
	}
	one := search.Request{Seeker: "alice", Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact, Explain: true}
	// Whether the decoder happens to consume the terminating chunk
	// depends on the answer's length, so batches of several lengths.
	sizes := [...]int{40, 100, 128, 200, 256}
	for name, rpc := range map[string]func(c *Client, i int) error{
		"single": func(c *Client, _ int) error { _, err := c.Do(ctx, one); return err },
		"batch": func(c *Client, i int) error {
			batch := make([]search.Request, sizes[i%len(sizes)])
			for q := range batch {
				batch[q] = one
			}
			return c.DoBatch(ctx, batch)[0].Err
		},
	} {
		c := newTestClient(t, ts.URL, ClientConfig{}) // its own transport
		before := opened.Load()
		for i := 0; i < 50; i++ {
			if err := rpc(c, i); err != nil {
				t.Fatalf("%s RPC %d: %v", name, i, err)
			}
		}
		if n := opened.Load() - before; n != 1 {
			t.Errorf("50 %s RPCs opened %d connections, want 1", name, n)
		}
	}
}

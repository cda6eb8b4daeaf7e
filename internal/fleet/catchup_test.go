package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/social"
)

// toggleReplica is a fleet replica whose HTTP surface can be forced
// down (503 on every request) and back up without losing its state —
// the SIGSTOP/SIGCONT shape of the readmission bug, which httptest
// Close cannot model. Independently, its /v2/apply can be made to fail
// the next dropFolds pages that ask for a fold, or the next dropApplies
// pages of any kind (503), or to hang every page that asks for a fold
// until the caller gives up. It also records the body of every apply
// page it lets through.
type toggleReplica struct {
	svc         *social.Service
	ts          *httptest.Server
	down        atomic.Bool
	dropFolds   atomic.Int32
	dropApplies atomic.Int32
	hangFolds   atomic.Bool

	mu      sync.Mutex
	applies []string
}

func newToggleReplica(t *testing.T) *toggleReplica {
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
	tr := &toggleReplica{svc: svc}
	tr.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		apply := r.URL.Path == "/v2/apply"
		var raw []byte
		var page server.ApplyRequest
		if apply {
			// Reading the body also lets the server notice a hang-up.
			raw, _ = io.ReadAll(r.Body)
			json.Unmarshal(raw, &page)
			r.Body = io.NopCloser(bytes.NewReader(raw))
		}
		if page.Fold && tr.hangFolds.Load() {
			<-r.Context().Done()
			return
		}
		if tr.down.Load() || page.Fold && take(&tr.dropFolds) || apply && take(&tr.dropApplies) {
			http.Error(w, `{"error":"replica down"}`, http.StatusServiceUnavailable)
			return
		}
		if apply {
			tr.mu.Lock()
			tr.applies = append(tr.applies, string(raw))
			tr.mu.Unlock()
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(tr.ts.Close)
	return tr
}

// take consumes one owed failure from n, if any.
func take(n *atomic.Int32) bool {
	for {
		v := n.Load()
		if v <= 0 {
			return false
		}
		if n.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// restart models the replica process restarting over volatile state:
// same address, empty service, cursor zero.
func (tr *toggleReplica) restart(t *testing.T) {
	t.Helper()
	fresh, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	g, st, names, _, err := fresh.SnapshotWithCursor()
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.svc.ImportSnapshot(g, st, names, 0); err != nil {
		t.Fatal(err)
	}
}

// appliesSeen returns a copy of the recorded apply page bodies.
func (tr *toggleReplica) appliesSeen() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]string(nil), tr.applies...)
}

// recordsIn flattens apply page bodies into the records they carried.
func recordsIn(t *testing.T, pages []string) []social.Mutation {
	t.Helper()
	var out []social.Mutation
	for _, body := range pages {
		var page server.ApplyRequest
		if err := json.Unmarshal([]byte(body), &page); err != nil {
			t.Fatalf("apply page %q: %v", body, err)
		}
		out = append(out, page.Records...)
	}
	return out
}

// newCatchupFleet builds an n-replica fleet over toggle replicas with
// fast health probing (FailAfter 1, a 10 ms probe) and a replication log
// in replogDir ("": a bare front-end no log is attached to, which
// refuses writes).
func newCatchupFleet(t *testing.T, n int, replogDir string) (*Frontend, *Pool, []*toggleReplica, []*Client) {
	t.Helper()
	var reps []*toggleReplica
	var clients []*Client
	for i := 0; i < n; i++ {
		tr := newToggleReplica(t)
		reps = append(reps, tr)
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
	if replogDir != "" {
		rl, err := OpenRepLog(replogDir)
		if err != nil {
			t.Fatal(err)
		}
		if err := front.UseRepLog(rl); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(front.Close)
	return front, pool, reps, clients
}

// TestWriteQuietReadmissionFolds is the regression test for the
// write-quiet rejoin bug: a replica that missed a heartbeat's fold used
// to be settled only at the *next* fleet write — with zero later
// writes, never. The dropped fold page ejects the replica, and the
// catch-up that readmits it streams the record again with a fold: it
// rejoins with nothing pending, though nothing more is written.
func TestWriteQuietReadmissionFolds(t *testing.T) {
	front, pool, reps, _ := newCatchupFleet(t, 2, t.TempDir())
	victim := 0
	reps[victim].dropFolds.Store(1)
	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		vs := front.StatsAny().(Stats).Replicas[victim]
		return reps[victim].dropFolds.Load() == 0 && vs.Counters.Ejections == 1 && pool.Live(victim)
	})
	if st := reps[victim].svc.Stats(); st.PendingWrites != 0 || reps[victim].svc.AppliedLSN() != 1 {
		t.Fatalf("rejoined victim: stats %+v, cursor %d; want the record applied and nothing pending", st, reps[victim].svc.AppliedLSN())
	}
	if vs := front.StatsAny().(Stats).Replicas[victim]; vs.Counters.Catchups < 1 || vs.Counters.CatchupRecords != 1 {
		t.Fatalf("victim counters = %+v, want a completed catch-up of the one record", vs.Counters)
	}
}

// TestCatchUpRacesConcurrentWrites runs a replica ejection + rejoin
// while a foreground writer keeps mutating through the front-end: the
// gate's stream and the heartbeat's race on the same replica, and the
// cursor rule must keep the result bit-identical to a reference service
// fed the same stream. Run under -race.
func TestCatchUpRacesConcurrentWrites(t *testing.T) {
	front, pool, reps, clients := newCatchupFleet(t, 3, t.TempDir())
	ref, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const nUsers = 16
	user := func(i int) string { return fmt.Sprintf("u%d", i) }

	// Single writer: identical mutation order on reference and fleet.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var writeErr atomic.Value
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			a, b := user(i%nUsers), user((i+1+i%5)%nUsers)
			if a == b {
				continue
			}
			w := 0.2 + 0.6*float64(i%7)/7
			if err := ref.Befriend(a, b, w); err != nil {
				writeErr.Store(fmt.Errorf("ref befriend: %w", err))
				return
			}
			if err := front.Befriend(a, b, w); err != nil {
				writeErr.Store(fmt.Errorf("front befriend: %w", err))
				return
			}
			if i%3 == 0 {
				it, tg := fmt.Sprintf("i%d", i%9), fmt.Sprintf("t%d", i%3)
				if err := ref.Tag(a, it, tg); err != nil {
					writeErr.Store(fmt.Errorf("ref tag: %w", err))
					return
				}
				if err := front.Tag(a, it, tg); err != nil {
					writeErr.Store(fmt.Errorf("front tag: %w", err))
					return
				}
			}
			time.Sleep(2 * time.Millisecond) // let catch-up outrun the head
		}
	}()

	victim := 1
	time.Sleep(50 * time.Millisecond) // some pre-ejection history
	reps[victim].down.Store(true)
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(victim) })
	time.Sleep(100 * time.Millisecond) // mutations the victim misses
	reps[victim].down.Store(false)
	waitFor(t, 10*time.Second, func() bool { return pool.Live(victim) })
	close(stop)
	wg.Wait()
	if err, _ := writeErr.Load().(error); err != nil {
		t.Fatal(err)
	}

	// Quiesce both sides, then the readmitted replica must answer every
	// query bit-identically to the reference.
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	compareReplicaToReference(t, ctx, clients[victim], ref, nUsers, 3)

	stats := front.StatsAny().(Stats)
	vs := stats.Replicas[victim]
	if vs.Counters.Catchups < 1 {
		t.Fatalf("victim stats = %+v, want >=1 completed catch-up", vs.Counters)
	}
	if vs.ReplogLag != 0 {
		t.Fatalf("victim replog lag = %d after quiesce, want 0", vs.ReplogLag)
	}
}

// compareReplicaToReference asserts one replica, queried directly over
// the wire, answers every seeker × tag mode=exact query bit-identically
// to the in-process reference service.
func compareReplicaToReference(t *testing.T, ctx context.Context, c *Client, ref *social.Service, nUsers, nTags int) {
	t.Helper()
	for u := 0; u < nUsers; u++ {
		for tg := 0; tg < nTags; tg++ {
			req := search.Request{
				Seeker: fmt.Sprintf("u%d", u),
				Tags:   []string{fmt.Sprintf("t%d", tg)},
				K:      8,
				Mode:   search.ModeExact,
			}
			want, werr := ref.Do(ctx, req)
			got, gerr := c.Do(ctx, req)
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("seeker u%d tag t%d: ref err %v, replica err %v", u, tg, werr, gerr)
			}
			if werr != nil {
				continue // both reject — parity holds
			}
			if len(want.Results) != len(got.Results) {
				t.Fatalf("seeker u%d tag t%d: %d vs %d results", u, tg, len(want.Results), len(got.Results))
			}
			for i := range want.Results {
				if want.Results[i] != got.Results[i] {
					t.Fatalf("seeker u%d tag t%d result %d: ref %+v, replica %+v",
						u, tg, i, want.Results[i], got.Results[i])
				}
			}
		}
	}
}

// TestCatchUpTornReplogFailsCleanly shears the replication log
// mid-record while a replica is waiting to rejoin: catch-up must fail
// with a clean error — never hand the replica a torn frame — keep the
// replica out of the ring, and keep retrying (observable via
// LastError), leaving the torn record unapplied.
func TestCatchUpTornReplogFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	front, pool, reps, _ := newCatchupFleet(t, 2, dir)

	seedErr := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		seedErr(front.Befriend(fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", i+1), 0.5))
	}
	victim := 1
	reps[victim].down.Store(true)
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(victim) })
	for i := 0; i < 8; i++ {
		seedErr(front.Befriend(fmt.Sprintf("v%d", i), fmt.Sprintf("v%d", i+1), 0.5))
	}
	appliedBefore := reps[victim].svc.AppliedLSN()
	head := front.StatsAny().(Stats).Replog.Head

	// Shear the last segment mid-record (out-of-band disk damage).
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no replog segments: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	reps[victim].down.Store(false)
	// Catch-up attempts must fail cleanly: the replica stays out with the
	// error observable, and the torn head record is never applied.
	waitFor(t, 5*time.Second, func() bool {
		for _, rs := range front.StatsAny().(Stats).Replicas {
			if strings.Contains(rs.LastError, "catch-up") {
				return true
			}
		}
		return false
	})
	if pool.Live(victim) {
		t.Fatal("replica readmitted over a torn replication log")
	}
	vs := front.StatsAny().(Stats).Replicas[victim]
	if vs.Counters.Catchups != 0 {
		t.Fatalf("victim counters = %+v, want 0 completed catch-ups", vs.Counters)
	}
	if got := reps[victim].svc.AppliedLSN(); got >= head {
		t.Fatalf("replica applied lsn %d, want < head %d (torn frame must not apply)", got, head)
	}
	if got := reps[victim].svc.AppliedLSN(); got < appliedBefore {
		t.Fatalf("replica applied lsn went backwards: %d -> %d", appliedBefore, got)
	}
}

// TestReplogEndpoint drives GET /v2/replog over the wire: the
// front-end pages out exactly the records it logged, and a front-end
// without a replication log answers 404.
func TestReplogEndpoint(t *testing.T) {
	front, _, _, _ := newCatchupFleet(t, 1, t.TempDir())
	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := front.Tag("bob", "luigis", "pizza"); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(front)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v2/replog?from=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v2/replog: status %d", resp.StatusCode)
	}
	var page server.ReplogPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Head != 2 || len(page.Records) != 2 {
		t.Fatalf("page = head %d, %d records; want head 2, 2 records", page.Head, len(page.Records))
	}
	if page.Records[0].LSN != 1 || page.Records[1].LSN != 2 {
		t.Fatalf("record lsns = %d, %d; want 1, 2", page.Records[0].LSN, page.Records[1].LSN)
	}

	// Paging from the middle.
	resp2, err := http.Get(ts.URL + "/v2/replog?from=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var page2 server.ReplogPage
	if err := json.NewDecoder(resp2.Body).Decode(&page2); err != nil {
		t.Fatal(err)
	}
	if len(page2.Records) != 1 || page2.Records[0].LSN != 2 {
		t.Fatalf("page from=2 = %+v, want the single record lsn 2", page2)
	}

	// A front-end without a replog answers 404.
	bare, _, _, _ := newCatchupFleet(t, 1, "")
	srv2, err := server.New(bare)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	resp3, err := http.Get(ts2.URL + "/v2/replog")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /v2/replog without a replog: status %d, want 404", resp3.StatusCode)
	}
}

// TestPreLogValidationMirrorsReplicas pins the invariant that the
// replication log never grows a record the fleet cannot apply: every
// mutation a replica would deterministically reject — empty names,
// line breaks (durable replicas), self-edges, out-of-range weights —
// is refused with ErrInvalid BEFORE the append, leaving the log head
// untouched.
func TestPreLogValidationMirrorsReplicas(t *testing.T) {
	front, _, _, _ := newCatchupFleet(t, 1, t.TempDir())
	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	head := front.StatsAny().(Stats).Replog.Head
	bad := []func() error{
		func() error { return front.Befriend("", "x", 0.5) },
		func() error { return front.Befriend("a\nb", "x", 0.5) },
		func() error { return front.Befriend("x", "x", 0.5) },
		func() error { return front.Befriend("x", "y", 0) },
		func() error { return front.Befriend("x", "y", 1.5) },
		func() error { return front.Tag("", "i", "t") },
		func() error { return front.Tag("u", "i\r", "t") },
	}
	for i, f := range bad {
		if err := f(); !errors.Is(err, search.ErrInvalid) {
			t.Fatalf("bad mutation %d: err = %v, want ErrInvalid", i, err)
		}
	}
	if got := front.StatsAny().(Stats).Replog.Head; got != head {
		t.Fatalf("replog head moved %d -> %d on rejected mutations", head, got)
	}
}

// TestProbeObservesCursorReset pins the barrier-safety rule: a health
// probe that finds the tracked cursor where it left it overwrites it
// with the replica's self-reported value, so a restarted replica's
// reset to zero is observed (and the truncation barrier retreats with
// it) instead of being masked by monotonic ack tracking.
func TestProbeObservesCursorReset(t *testing.T) {
	var st replicaState
	st.noteApplied(40)
	st.noteApplied(10) // acks are monotonic
	if got := st.applied(); got != 40 {
		t.Fatalf("cursor after acks = %d, want 40", got)
	}
	before := st.applied()
	// ... probe in flight; the replica restarted and says so.
	if got := st.probeApplied(before, 0); got != 0 || st.applied() != 0 {
		t.Fatalf("cursor after probe reset = %d (tracked %d), want 0", got, st.applied())
	}
}

// TestProbeDoesNotLowerCursorAckedInFlight interleaves, by hand, the
// race behind the "victim replog lag = 1 after quiesce" flake: the
// probe reads X-Applied-LSN = K, an apply ack notes K+1 before the
// probe's reply is processed, and the stale K must not win — neither in
// the tracked cursor (ReplogLag) nor as a fall below an acked cursor,
// which the prober ejects as a restart.
func TestProbeDoesNotLowerCursorAckedInFlight(t *testing.T) {
	const k = 7
	var st replicaState
	st.noteApplied(k)
	before := st.applied() // probeAll, before Healthz goes out
	reported := uint64(k)  // what /healthz answered
	st.noteApplied(k + 1)  // the concurrent mutation ack
	if got := st.probeApplied(before, reported); got != k+1 {
		t.Fatalf("probe reply lowered an acked cursor: %d, want %d", got, k+1)
	}
	if got := st.applied(); got != k+1 {
		t.Fatalf("tracked cursor = %d, want %d", got, k+1)
	}
	// A probe that saw further than the acks still raises the cursor.
	before = st.applied()
	st.noteApplied(k + 2)
	if got := st.probeApplied(before, k+5); got != k+5 {
		t.Fatalf("probe ahead of acks: cursor %d, want %d", got, k+5)
	}
}

// TestLiveReplicaDivergenceEjectsImmediately pins the decisive-eject
// rule: a live replica that fails ONE apply page (here: a transient 503
// on /v2/apply, with probes healthy throughout) must not ride out
// FailAfter serving a stale graph — the heartbeat that failed against
// it ejects it on the spot, and catch-up readmits it holding the record
// it missed.
func TestLiveReplicaDivergenceEjectsImmediately(t *testing.T) {
	var reps []*toggleReplica
	var clients []*Client
	for i := 0; i < 2; i++ {
		tr := newToggleReplica(t)
		reps = append(reps, tr)
		clients = append(clients, newTestClient(t, tr.ts.URL, ClientConfig{}))
	}
	// FailAfter 3: under the cumulative rule, one failed page with
	// healthy probes around it would never eject.
	pool, err := NewPool(clients, PoolConfig{
		HealthInterval: 10 * time.Millisecond,
		FailAfter:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	bcast := NewBroadcaster(clients, BroadcasterConfig{Window: 2 * time.Millisecond})
	front, err := NewFrontend(pool, bcast)
	if err != nil {
		t.Fatal(err)
	}
	useTempRepLog(t, front)
	t.Cleanup(front.Close)

	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	victim := 0
	reps[victim].dropApplies.Store(1)
	if err := front.Befriend("carol", "dave", 0.8); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return reps[victim].dropApplies.Load() == 0 && pool.Live(victim) && reps[victim].svc.AppliedLSN() == 2
	})
	vs := front.StatsAny().(Stats).Replicas[victim]
	if vs.Counters.Ejections < 1 || vs.Counters.Catchups < 1 {
		t.Fatalf("victim counters = %+v, want the failed page to eject and catch-up to repair", vs.Counters)
	}
}

// TestWriteQuietRestartEjectsAndCatchesUp: a live replica that restarts
// while nothing is written — state gone, cursor back at zero — owes no
// heartbeat a failed page, so only the probe can notice: it sees the
// cursor fall below one the replica acknowledged and ejects it, and
// catch-up readmits it holding the full prefix.
func TestWriteQuietRestartEjectsAndCatchesUp(t *testing.T) {
	front, pool, reps, clients := newCatchupFleet(t, 2, t.TempDir())
	ref, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	const nUsers = 6
	user := func(i int) string { return fmt.Sprintf("u%d", i) }
	for i := 0; i < nUsers; i++ {
		a, b := user(i), user((i+1)%nUsers)
		for _, err := range []error{
			ref.Befriend(a, b, 0.7), front.Befriend(a, b, 0.7),
			ref.Tag(b, "i"+b, "t0"), front.Tag(b, "i"+b, "t0"),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ref.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := front.Flush(); err != nil {
		t.Fatal(err)
	}
	const head = 2 * nUsers
	victim := 0
	if got := pool.state(victim).applied(); got != head {
		t.Fatalf("tracked cursor = %d after Flush, want %d", got, head)
	}

	reps[victim].restart(t)
	waitFor(t, 5*time.Second, func() bool {
		vs := front.StatsAny().(Stats).Replicas[victim]
		return vs.Counters.Ejections >= 1 && vs.Live && reps[victim].svc.AppliedLSN() == head
	})
	if vs := front.StatsAny().(Stats).Replicas[victim]; vs.Counters.CatchupRecords != head {
		t.Fatalf("victim counters = %+v, want a catch-up of the full prefix (%d records)", vs.Counters, head)
	}
	compareReplicaToReference(t, context.Background(), clients[victim], ref, nUsers, 1)
}

// TestEpochMismatchRefusesReplica pins the fresh-log-over-running-
// replicas detection: a replica whose cursor is beyond the log head is
// ejected by the heartbeat (its acks are dedup no-ops) and catch-up
// refuses to readmit it.
func TestEpochMismatchRefusesReplica(t *testing.T) {
	front, pool, reps, _ := newCatchupFleet(t, 2, t.TempDir())
	// Replica 0 lives in a future epoch: cursor far beyond this log.
	victim := 0
	for lsn := uint64(1); lsn <= 5; lsn++ {
		if err := reps[victim].svc.Apply(social.Mutation{Kind: social.KindBefriend, LSN: lsn, User: fmt.Sprintf("e%d", lsn), Friend: fmt.Sprintf("f%d", lsn), Weight: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	// The fresh log's first write gets LSN 1 — the victim dedup-skips it.
	if err := front.Befriend("alice", "bob", 0.9); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(victim) })
	waitFor(t, 5*time.Second, func() bool {
		return strings.Contains(front.StatsAny().(Stats).Replicas[victim].LastError, "epoch mismatch")
	})
	// Catch-up keeps refusing: the replica must stay out.
	time.Sleep(100 * time.Millisecond)
	if pool.Live(victim) {
		t.Fatal("epoch-mismatched replica readmitted")
	}
	// The healthy replica carries the fleet.
	if !pool.Live(1) {
		t.Fatal("healthy replica ejected")
	}
}

// TestRejoinInvalidationIsEdgeScoped pins the rejoin's cache scope on
// the rejoined replica itself: after a catch-up that replayed two
// Befriends, a warmed seeker whose horizon holds none of their
// endpoints is still a cache hit, and one whose horizon holds an
// endpoint was dropped.
func TestRejoinInvalidationIsEdgeScoped(t *testing.T) {
	front, pool, reps, clients := newCatchupFleet(t, 2, t.TempDir())
	ctx := context.Background()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Two components: alice–bob and zed–yan.
	must(front.Befriend("alice", "bob", 0.9))
	must(front.Befriend("zed", "yan", 0.9))
	must(front.Tag("bob", "luigis", "pizza"))
	must(front.Tag("yan", "marios", "pizza"))
	must(front.Flush())

	victim := 0
	cache := func() (hits, misses int64) {
		c := reps[victim].svc.Stats().SeekerCache
		return c.Hits, c.Misses
	}
	// query asks the victim directly and reports whether its horizon
	// cache answered.
	query := func(seeker string) (hit bool) {
		t.Helper()
		h0, m0 := cache()
		_, err := clients[victim].Do(ctx, search.Request{Seeker: seeker, Tags: []string{"pizza"}, K: 3, Mode: search.ModeExact})
		must(err)
		h1, m1 := cache()
		if (h1-h0)+(m1-m0) != 1 {
			t.Fatalf("seeker %s: cache counters moved by %d hits, %d misses; want one lookup", seeker, h1-h0, m1-m0)
		}
		return h1 > h0
	}
	for _, seeker := range []string{"alice", "zed"} {
		query(seeker) // warm
		if !query(seeker) {
			t.Fatalf("warmed seeker %s is not a cache hit", seeker)
		}
	}

	reps[victim].down.Store(true)
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(victim) })
	must(front.Befriend("bob", "carol", 0.8))
	must(front.Befriend("carol", "dave", 0.7))
	// The heartbeat passes the victim by before it is back, so only
	// its catch-up delivers the two records.
	must(front.Flush())
	reps[victim].down.Store(false)
	waitFor(t, 5*time.Second, func() bool { return pool.Live(victim) })
	if vs := front.StatsAny().(Stats).Replicas[victim]; vs.Counters.CatchupRecords != 2 {
		t.Fatalf("victim counters = %+v, want a catch-up of the two Befriends", vs.Counters)
	}

	if !query("zed") {
		t.Fatal("rejoin dropped a horizon holding no endpoint of the caught-up Befriends")
	}
	if query("alice") {
		t.Fatal("rejoin kept a horizon holding an endpoint (bob) of a caught-up Befriend")
	}
}

// TestJournaledReplicaRestartedAtTheBound: a journaled replica that
// restarts from its journal already holds every record through the
// front-end's bound, so catch-up readmits it without a request. The
// replayed records wait unfolded in its overlay, and its own first read
// folds them (a journaled service folds before it reads), so it answers
// with them.
func TestJournaledReplicaRestartedAtTheBound(t *testing.T) {
	dir := t.TempDir()
	cfg := durable.DefaultConfig()
	cfg.Service.AutoCompactEvery = 1 << 30 // the fold is the stream's
	var svc *social.Service
	var handler atomic.Value
	open := func() {
		t.Helper()
		var err error
		if svc, err = durable.Open(dir, cfg); err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(svc)
		if err != nil {
			t.Fatal(err)
		}
		handler.Store(http.Handler(srv))
	}
	open()
	t.Cleanup(func() { svc.Close() })
	var down atomic.Bool
	var applies atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, `{"error":"replica down"}`, http.StatusServiceUnavailable)
			return
		}
		if r.URL.Path == "/v2/apply" {
			applies.Add(1)
		}
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	client := newTestClient(t, ts.URL, ClientConfig{})
	pool, err := NewPool([]*Client{client}, PoolConfig{HealthInterval: 10 * time.Millisecond, FailAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	front, err := NewFrontend(pool, NewBroadcaster([]*Client{client}, BroadcasterConfig{Window: 2 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	useTempRepLog(t, front)
	t.Cleanup(front.Close)

	ref, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		t.Fatal(err)
	}
	const nUsers = 4
	for i := 0; i < nUsers; i++ {
		a, b := fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", (i+1)%nUsers)
		for _, err := range []error{
			ref.Befriend(a, b, 0.7), front.Befriend(a, b, 0.7),
			ref.Tag(b, "i"+b, "t0"), front.Tag(b, "i"+b, "t0"),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, err := range []error{ref.Flush(), front.Flush()} {
		if err != nil {
			t.Fatal(err)
		}
	}
	const bound = 2 * nUsers
	compareReplicaToReference(t, context.Background(), client, ref, nUsers, 1)

	down.Store(true)
	waitFor(t, 5*time.Second, func() bool { return !pool.Live(0) })
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	open()
	if got, st := svc.AppliedLSN(), svc.Stats(); got != bound || st.PendingWrites == 0 {
		t.Fatalf("reopened replica: cursor %d, stats %+v; want cursor %d with the replayed records pending", got, st, bound)
	}
	sent := applies.Load()
	down.Store(false)
	waitFor(t, 5*time.Second, func() bool { return pool.Live(0) })
	if vs := front.StatsAny().(Stats).Replicas[0]; vs.Counters.Catchups < 1 || vs.Counters.CatchupRecords != 0 {
		t.Fatalf("replica counters = %+v, want a catch-up of zero records", vs.Counters)
	}
	compareReplicaToReference(t, context.Background(), client, ref, nUsers, 1)
	if n := applies.Load() - sent; n != 0 {
		t.Fatalf("%d apply requests reached the restarted replica, want 0", n)
	}
}

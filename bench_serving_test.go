package repro

// Serving-path benchmarks for the batch-search subsystem: one op is a
// fixed 64-query workload over a small set of repeating seekers, served
// (a) cold — seeker cache disabled, every query re-expands the graph,
// (b) through the mutation-aware seeker cache (internal/qcache), and
// (c) as one DoBatch on the worker pool with the cache enabled.
// Comparing ns/op across the three shows what horizon reuse and
// batching buy on identical work:
//
//	go test -bench 'Serving' -benchmem .

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/proximity"
	"repro/internal/search"
	"repro/internal/server"
	"repro/internal/social"
)

// servingWorkload is the number of queries per benchmark op;
// servingSeekers the number of distinct seekers they revisit.
const (
	servingWorkload = 64
	servingSeekers  = 8
)

// servingService restores a generated corpus into a name-addressed
// service with the given cache size (negative disables caching) and
// prebuilds the workload's requests, so the benchmarks measure the
// serving path, not request construction. It is shared with the
// zero-allocation and cross-layout property tests in flatpath_test.go,
// hence testing.TB.
func servingService(b testing.TB, cacheSize int) (*social.Service, []search.Request) {
	b.Helper()
	ds, err := gen.Generate(gen.DeliciousParams().Scale(benchScale), 42)
	if err != nil {
		b.Fatal(err)
	}
	cfg := social.DefaultServiceConfig()
	cfg.Proximity = proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.1}
	cfg.SeekerCacheSize = cacheSize
	svc, err := social.Restore(cfg, ds.Graph, ds.Store, corpusNames(ds))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	seekers := make([]string, servingSeekers)
	for i := range seekers {
		seekers[i] = fmt.Sprintf("u%d", rng.Intn(ds.Graph.NumUsers()))
	}
	reqs := make([]search.Request, servingWorkload)
	for i := range reqs {
		reqs[i] = search.Request{
			Seeker: seekers[i%servingSeekers],
			Tags:   []string{fmt.Sprintf("t%d", rng.Intn(ds.Store.NumTags()))},
			K:      10,
			Mode:   search.ModeExact,
		}
	}
	return svc, reqs
}

func runSequential(b *testing.B, svc *social.Service, reqs []search.Request, resp *search.Response) {
	for i := range reqs {
		if err := svc.DoInto(context.Background(), reqs[i], resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServingColdSearch: N sequential searches, cache disabled —
// the baseline every serving optimisation is measured against.
func BenchmarkServingColdSearch(b *testing.B) {
	svc, reqs := servingService(b, -1)
	var resp search.Response
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSequential(b, svc, reqs, &resp)
	}
}

// BenchmarkServingCachedSearch: the same sequential workload through
// the seeker cache — repeated seekers reuse their horizon expansion.
// With the response buffer reused, the warm path is expected to run
// allocation-free (gated by benchgate's allocs/op baseline).
func BenchmarkServingCachedSearch(b *testing.B) {
	svc, reqs := servingService(b, 0) // 0 = default size
	var resp search.Response
	runSequential(b, svc, reqs, &resp) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSequential(b, svc, reqs, &resp)
	}
}

// BenchmarkServingBatchSearch: the same workload as one DoBatch on the
// bounded worker pool, cache enabled.
func BenchmarkServingBatchSearch(b *testing.B) {
	svc, reqs := servingService(b, 0)
	ctx := context.Background()
	svc.DoBatch(ctx, reqs) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range svc.DoBatch(ctx, reqs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// servingBatchAllocCeiling bounds TestServingBatchSearchAllocs. Ten
// runs read 14 allocations per batch; the ceiling leaves room for
// another Go release, and one more allocation per query (64) crosses
// it.
const servingBatchAllocCeiling = 20

// TestServingBatchSearchAllocs gates BenchmarkServingBatchSearch's
// batch in a count that repeats: the allocations of one warm 64-query
// social.Service.DoBatch. testing.AllocsPerRun runs it at GOMAXPROCS 1,
// where the benchmark's allocs/op moves with the P each batch worker
// lands on, and so with its pooled scratch.
func TestServingBatchSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	svc, reqs := servingService(t, 0)
	ctx := context.Background()
	run := func() {
		for _, r := range svc.DoBatch(ctx, reqs) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	run() // warm the cache
	got := testing.AllocsPerRun(100, run)
	t.Logf("%v allocations per batch", got)
	if got > servingBatchAllocCeiling {
		t.Fatalf("a 64-query batch allocates %v, want at most %d", got, servingBatchAllocCeiling)
	}
}

// BenchmarkServingFleetLoopback: the same 64-query workload as one
// DoBatch through a 3-replica loopback fleet — front-end pool →
// httptest replicas speaking the real /v2 wire format — with warm
// caches. Comparing against BenchmarkServingBatchSearch shows what the
// network hop (HTTP, JSON, routing) costs on identical work; benchgate
// pins the remote path's overhead ratio so a serialization or routing
// regression fails CI even on different hardware.
func BenchmarkServingFleetLoopback(b *testing.B) {
	run := fleetLoopback(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}

// fleetLoopbackAllocCeiling bounds TestFleetLoopbackAllocs. Ten runs
// read 348-349 allocations per batch, 351-352 before each replica's
// answer shared one Content-Type value, 389-390 before the hop's
// requests were built over a URL parsed once and a shared header,
// straight to the transport, and 615-616 before the search request
// bodies were read in one pass; the ceiling leaves room for another Go
// release's net/http, and one more allocation per query on either hop
// (64) crosses it.
const fleetLoopbackAllocCeiling = 379

// TestFleetLoopbackAllocs gates the fleet hop in a count, which does
// not read the machine as the fleet-loopback-over-batch time gate does:
// the allocations of one warm 64-query Pool.DoBatch over
// BenchmarkServingFleetLoopback's three replicas, client and servers
// together. testing.AllocsPerRun runs it at GOMAXPROCS 1, so the
// replicas' sync.Pools do not miss when a worker lands on another P.
func TestFleetLoopbackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	run := fleetLoopback(t)
	got := testing.AllocsPerRun(100, run)
	t.Logf("%v allocations per batch", got)
	if got > fleetLoopbackAllocCeiling {
		t.Fatalf("a 64-query batch over the loopback fleet allocates %v, want at most %d", got, fleetLoopbackAllocCeiling)
	}
}

// fleetLoopback builds the loopback fleet and returns one warm run of
// the 64-query workload through it as one Pool.DoBatch.
func fleetLoopback(tb testing.TB) (run func()) {
	var clients []*fleet.Client
	var reqs []search.Request
	for i := 0; i < 3; i++ {
		// servingService is deterministic (fixed gen + rng seeds), so
		// three calls build three identical replicas.
		svc, rs := servingService(tb, 0)
		reqs = rs
		srv, err := server.New(svc)
		if err != nil {
			tb.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		tb.Cleanup(ts.Close)
		c, err := fleet.NewClient(ts.URL, fleet.ClientConfig{})
		if err != nil {
			tb.Fatal(err)
		}
		clients = append(clients, c)
	}
	pool, err := fleet.NewPool(clients, fleet.PoolConfig{HealthInterval: -1})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(pool.Close)
	ctx := context.Background()
	run = func() {
		for _, r := range pool.DoBatch(ctx, reqs) {
			if r.Err != nil {
				tb.Fatal(r.Err)
			}
		}
	}
	run() // warm every replica's cache
	return run
}

// churnService builds a world of disjoint communities (chains of
// churnCommunitySize users, each tagging one item with "pizza") for the
// mutation-churn benchmarks: one op is a friendship mutation confined
// to community 0 followed by a query from every community's seeker, so
// the two invalidation policies differ only in how much cached state
// one mutation destroys.
const (
	churnCommunities   = 16
	churnCommunitySize = 6
)

func churnService(b *testing.B, edgeScopeLimit int) *social.Service {
	b.Helper()
	cfg := social.DefaultServiceConfig()
	cfg.Proximity = proximity.Params{Alpha: 0.8, SelfWeight: 1, MinSigma: 0.01}
	cfg.AutoCompactEvery = 0 // every write compacts (and invalidates)
	cfg.SeekerCacheSize = 512
	cfg.EdgeScopeLimit = edgeScopeLimit
	svc, err := social.NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for c := 0; c < churnCommunities; c++ {
		for u := 0; u < churnCommunitySize-1; u++ {
			if err := svc.Befriend(churnUser(c, u), churnUser(c, u+1), 0.9); err != nil {
				b.Fatal(err)
			}
		}
		for u := 0; u < churnCommunitySize; u++ {
			if err := svc.Tag(churnUser(c, u), fmt.Sprintf("c%di%d", c, u), "pizza"); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := svc.Flush(); err != nil {
		b.Fatal(err)
	}
	return svc
}

func churnUser(c, u int) string { return fmt.Sprintf("c%du%d", c, u) }

func runChurn(b *testing.B, svc *social.Service) {
	b.Helper()
	queryAll := func() {
		for c := 0; c < churnCommunities; c++ {
			if _, err := svc.Do(context.Background(), search.Request{
				Seeker: churnUser(c, 0), Tags: []string{"pizza"}, K: 5, Mode: search.ModeExact,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	queryAll() // warm every community's seeker
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Befriend(churnUser(0, i%(churnCommunitySize-1)), churnUser(0, i%(churnCommunitySize-1)+1), 0.9); err != nil {
			b.Fatal(err)
		}
		queryAll()
	}
	b.StopTimer()
	b.ReportMetric(svc.Stats().SeekerCache.HitRate(), "hit-rate")
}

// BenchmarkServingMutationChurnEdgeScoped: mixed mutation workload
// under edge-scoped invalidation — only the mutated community
// cold-starts, every other seeker keeps its horizon.
func BenchmarkServingMutationChurnEdgeScoped(b *testing.B) {
	runChurn(b, churnService(b, 0))
}

// BenchmarkServingMutationChurnGlobalGen: the same workload under the
// pre-sharding global-generation policy (every friend compaction drops
// the whole fleet) — the baseline edge scoping is measured against.
func BenchmarkServingMutationChurnGlobalGen(b *testing.B) {
	runChurn(b, churnService(b, -1))
}

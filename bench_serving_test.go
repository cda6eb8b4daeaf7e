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
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

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

// servingModeRounds is how many times BenchmarkServingModes runs each
// mode's sub-benchmark.
const servingModeRounds = 15

// BenchmarkServingModes: the cached sequential workload in each /v2
// mode on one warm service. Every mode runs the one exact path, so
// benchgate pins auto/exact and approx/exact near 1 and each mode at 0
// allocs/op: a mode that grows a path of its own shows up as a ratio or
// an allocation. Two things keep machine noise out of the ratios:
//   - the modes are interleaved: the three sub-benchmarks take turns
//     for servingModeRounds rounds, so a load swing lands on every mode
//     alike (the testing package names a repeat "exact#01", ..., and
//     benchgate folds the repeats into samples of one benchmark);
//   - a sub-benchmark reports its fastest op as ns/op, not the mean. On
//     a shared 2 vCPU VM the machine's speed swung about 2x every
//     10-50 ms, and the fastest of a few hundred ops filters that out.
func BenchmarkServingModes(b *testing.B) {
	svc, reqs := servingService(b, 0)
	modes := []search.Mode{search.ModeExact, search.ModeAuto, search.ModeApprox}
	perMode := make([][]search.Request, len(modes))
	var resp search.Response
	for i, mode := range modes {
		perMode[i] = append([]search.Request(nil), reqs...)
		for j := range perMode[i] {
			perMode[i][j].Mode = mode
		}
		runSequential(b, svc, perMode[i], &resp) // warm the cache and the arenas
	}
	for round := 0; round < servingModeRounds; round++ {
		for i, mode := range modes {
			b.Run(mode.String(), func(b *testing.B) {
				b.ReportAllocs()
				fastest := time.Duration(math.MaxInt64)
				for n := 0; n < b.N; n++ {
					start := time.Now()
					runSequential(b, svc, perMode[i], &resp)
					fastest = min(fastest, time.Since(start))
				}
				b.ReportMetric(float64(fastest), "ns/op")
			})
		}
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

// BenchmarkServingFleetLoopback: the same 64-query workload as one
// DoBatch through a 3-replica loopback fleet — front-end pool →
// httptest replicas speaking the real /v2 wire format — with warm
// caches. Comparing against BenchmarkServingBatchSearch shows what the
// network hop (HTTP, JSON, routing) costs on identical work; benchgate
// pins the remote path's overhead ratio so a serialization or routing
// regression fails CI even on different hardware.
func BenchmarkServingFleetLoopback(b *testing.B) {
	var clients []*fleet.Client
	var reqs []search.Request
	for i := 0; i < 3; i++ {
		// servingService is deterministic (fixed gen + rng seeds), so
		// three calls build three identical replicas.
		svc, rs := servingService(b, 0)
		reqs = rs
		srv, err := server.New(svc)
		if err != nil {
			b.Fatal(err)
		}
		ts := httptest.NewServer(srv)
		defer ts.Close()
		c, err := fleet.NewClient(ts.URL, fleet.ClientConfig{})
		if err != nil {
			b.Fatal(err)
		}
		clients = append(clients, c)
	}
	pool, err := fleet.NewPool(clients, fleet.PoolConfig{HealthInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer pool.Close()
	ctx := context.Background()
	run := func() {
		for _, r := range pool.DoBatch(ctx, reqs) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
	run() // warm every replica's cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
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

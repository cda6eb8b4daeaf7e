package qcache

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/tagstore"
)

// servingHorizons materializes the full horizons of n seekers drawn
// uniformly from the tier-1 corpus's graph under the serving defaults
// for proximity — the ~1,600-user horizons fleetbench's replicas cache.
// Every id is doubled on the way in: the horizons hold even ids only,
// so a benchmark can name odd ids — inside the range the members span,
// in no horizon — and have a scan search every member and find nothing.
func servingHorizons(b *testing.B, n int) (horizons []*core.SeekerHorizon, users int) {
	b.Helper()
	ds, err := gen.Generate(gen.DeliciousParams().Scale(5), 42)
	if err != nil {
		b.Fatal(err)
	}
	users = 2 * ds.Graph.NumUsers()
	gb := graph.NewBuilder(users)
	for _, e := range ds.Graph.Edges() {
		gb.AddEdge(2*e.U, 2*e.V, e.Weight)
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	store, err := tagstore.NewBuilder(users, 1, 1).Build() // horizons never read it
	if err != nil {
		b.Fatal(err)
	}
	e, err := core.NewEngine(g, store, core.Config{
		Proximity: proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.05}, // social.DefaultServiceConfig
		Beta:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	horizons = make([]*core.SeekerHorizon, n)
	for i, seeker := range rand.New(rand.NewSource(1)).Perm(users / 2)[:n] {
		horizons[i] = horizonFor(b, e, graph.UserID(2*seeker))
	}
	return horizons, users
}

// BenchmarkPutEvict times what the cache adds to a miss once it is
// full: one Put of a seeker that is not resident, which evicts the LRU
// tail. 64 entries is one stripe, as in social's default cache (256
// entries, 4 stripes); the cost does not depend on the horizon's size.
func BenchmarkPutEvict(b *testing.B) {
	const capacity = 64
	horizons, _ := servingHorizons(b, 4*capacity)
	c, err := New(capacity)
	if err != nil {
		b.Fatal(err)
	}
	gen := c.Generation()
	for i, h := range horizons {
		c.Put(graph.UserID(i), gen, h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		i := n % len(horizons) // evicted 3×capacity Puts ago
		c.Put(graph.UserID(i), gen, horizons[i])
	}
	b.StopTimer()
	if got := c.Counters().Evictions; got != int64(len(horizons)-capacity+b.N) {
		b.Fatalf("%d evictions, want one per Put", got)
	}
}

// BenchmarkInvalidateEdges times the scan at its worst: every resident
// horizon is read to its last member and none is dropped. Two kinds of
// batch do that. In "absent" the endpoints are random odd ids, in no
// horizon (see servingHorizons). In "members" they are random real
// users, each a member of about a sixth of the horizons, so the scan
// records their σ and tests every edge — but at weight 0.05 no edge can
// raise anyone: σ_u·0.05·0.6 stays under the 0.05 floor however close u
// is. 64 entries is one stripe, the longest one batch holds a stripe
// lock; 4,096 is 64 stripes, each scanned under its own lock in turn.
// 256 edges is the most a compaction scopes
// (social.DefaultEdgeScopeLimit) before it falls back to Invalidate.
func BenchmarkInvalidateEdges(b *testing.B) {
	sizes := []int{64, 4096}
	horizons, users := servingHorizons(b, sizes[len(sizes)-1])
	for _, entries := range sizes {
		c, err := New(entries)
		if err != nil {
			b.Fatal(err)
		}
		for i, h := range horizons[:entries] {
			c.Put(graph.UserID(i), c.Generation(), h)
		}
		members := 0
		for _, u := range c.Seekers() {
			members += horizons[u].Size()
		}
		for _, kind := range []struct {
			name   string
			parity int
			weight float64
		}{{"absent", 1, 1}, {"members", 0, 0.05}} {
			for _, edges := range []int{1, 16, 256} {
				rng := rand.New(rand.NewSource(int64(edges)))
				batch := make([]graph.Edge, edges)
				for i := range batch {
					batch[i] = graph.Edge{
						U:      graph.UserID(2*rng.Intn(users/2) + kind.parity),
						V:      graph.UserID(2*rng.Intn(users/2) + kind.parity),
						Weight: kind.weight,
					}
				}
				b.Run(fmt.Sprintf("%dentries/%dedges-%s", entries, edges, kind.name), func(b *testing.B) {
					b.ReportAllocs()
					for n := 0; n < b.N; n++ {
						if dropped := c.InvalidateEdges(batch); dropped != 0 {
							b.Fatalf("dropped %d entries", dropped)
						}
					}
					b.ReportMetric(float64(members), "members-scanned/op")
				})
			}
		}
	}
}

package core

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proximity"
)

// benchScale is the corpus scale the engine benchmarks generate at:
// the BENCH_SCALE environment variable, or 5 — the corpus fleetbench
// serves, 10,000 users — when it is unset. docs/perf.md ("Engine rows
// by corpus scale") runs them at 5, 25 and 50.
func benchScale(b *testing.B) float64 {
	v := os.Getenv("BENCH_SCALE")
	if v == "" {
		return 5
	}
	s, err := strconv.ParseFloat(v, 64)
	if err != nil || !(s > 0) {
		b.Fatalf("BENCH_SCALE=%q: want a positive number", v)
	}
	return s
}

// servingWorkload is the shape fleetbench's reads have: the tier-1
// corpus (at benchScale) under the serving defaults for proximity and
// β, and 192 queries with two neighbourhood-biased tags from uniform
// seekers.
func servingWorkload(b *testing.B) (*Engine, []gen.QuerySpec) {
	b.Helper()
	ds, err := gen.Generate(gen.DeliciousParams().Scale(benchScale(b)), 42)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(ds.Graph, ds.Store, Config{
		Proximity: proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.05}, // social.DefaultServiceConfig
		Beta:      1,
	})
	if err != nil {
		b.Fatal(err)
	}
	wp := gen.DefaultWorkloadParams() // 2 tags, 0.8 neighbourhood bias, uniform seekers
	wp.NumQueries = 192
	specs, err := gen.Workload(ds, wp, 1)
	if err != nil {
		b.Fatal(err)
	}
	return e, specs
}

// BenchmarkMaterializeHorizon times what a cache miss pays before the
// merge: one full expansion of a seeker's horizon into the form qcache
// keeps. B/op is what the miss leaves behind for the collector — the
// horizon has to own its memory, so the floor is the struct plus an
// exact-size list (16 B a user). The users metrics are the served
// horizons' mean, 90th percentile and largest size.
func BenchmarkMaterializeHorizon(b *testing.B) {
	e, specs := servingWorkload(b)
	benchMaterialize(b, e, specs)
}

// BenchmarkMaterializeHorizonTied is BenchmarkMaterializeHorizon on the
// serving corpus with every weight set to 0.5, so each σ is a power of
// α/2 and every proximity band of the expansion is one run of ties,
// ordered by user id alone. At α 1 a horizon holds nearly every user,
// so that case expands from fewer seekers to keep a fixed -benchtime
// short.
func BenchmarkMaterializeHorizonTied(b *testing.B) {
	e, specs := servingWorkload(b)
	g := tiedGraph(b, e.g)
	for _, c := range []struct {
		alpha   float64
		seekers int
	}{{0.6, len(specs)}, {1, 16}} {
		tied, err := NewEngine(g, e.store, Config{
			Proximity: proximity.Params{Alpha: c.alpha, SelfWeight: 1, MinSigma: 0.05},
			Beta:      1,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("alpha=%g", c.alpha), func(b *testing.B) {
			benchMaterialize(b, tied, specs[:c.seekers])
		})
	}
}

// tiedGraph is g with every weight set to 0.5.
func tiedGraph(tb testing.TB, g *graph.Graph) *graph.Graph {
	tb.Helper()
	edges := g.Edges()
	for i := range edges {
		edges[i].Weight = 0.5
	}
	tied, err := graph.FromSortedEdges(g.NumUsers(), edges)
	if err != nil {
		tb.Fatal(err)
	}
	return tied
}

// benchMaterialize materializes the specs' seekers' horizons on e in
// turn, after one warm-up pass over all of them.
func benchMaterialize(b *testing.B, e *Engine, specs []gen.QuerySpec) {
	users := 0
	sizes := make([]int, len(specs))
	for i, s := range specs { // warm the iterator pool to the largest horizon
		h, err := e.MaterializeHorizon(s.Seeker, 0)
		if err != nil {
			b.Fatal(err)
		}
		users += h.Size()
		sizes[i] = h.Size()
	}
	slices.Sort(sizes)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := e.MaterializeHorizon(specs[n%len(specs)].Seeker, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(users)/float64(len(specs)), "users")
	b.ReportMetric(float64(sizes[len(sizes)*9/10]), "p90-users")
	b.ReportMetric(float64(sizes[len(sizes)-1]), "max-users")
}

// BenchmarkRefineHorizonMerge times one exact (RefineScores) query,
// k = 10, over servingWorkload.
//
//   - join:  over a cached horizon, the tag-pivoted join (what a cache
//     hit runs);
//   - join-evicted: the same, each query starting on cold caches — the
//     timer stops while a 16 MiB scratch is walked. A replica serving
//     HTTP between merges is nearer this than the warm loop, which
//     keeps 192 queries' posting lists in cache;
//   - probe: over the same cached horizon, one binary search per
//     (user, tag) pair. A MaxUsers budget one past the horizon never
//     fires but keeps the merge on mainLoop, which is how the cached
//     merge ran before the join existed;
//   - lazy:  no horizon, the live best-first expansion (what NoCache and
//     the oracle run).
//
// All return the same answers: TestRefineJoinMatchesSettleLoop holds
// them to that. Each case reports, per query, the horizon's users and
// the join's counts: the users of the query tags its list pass scans,
// the (user, tag) lists in the horizon and the postings they hold.
func BenchmarkRefineHorizonMerge(b *testing.B) {
	e, specs := servingWorkload(b)
	queries := make([]Query, len(specs))
	horizons := make([]*SeekerHorizon, len(specs))
	var users int
	var counts joinCounts
	for i, s := range specs {
		queries[i] = Query{Seeker: s.Seeker, Tags: s.Tags, K: 10}
		h, err := e.MaterializeHorizon(s.Seeker, 0)
		if err != nil {
			b.Fatal(err)
		}
		horizons[i] = h
		users += h.Size()
		counts.add(e, queries[i], h)
	}
	run := func(name string, scratch []int64, one func(i int, ans *Answer) error) {
		b.Run(name, func(b *testing.B) {
			var ans Answer
			for i := range queries { // warm the run pool and ans.Results
				if err := one(i, &ans); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if scratch != nil {
					b.StopTimer()
					for k := range scratch {
						scratch[k]++
					}
					b.StartTimer()
				}
				if err := one(n%len(queries), &ans); err != nil {
					b.Fatal(err)
				}
			}
			per := func(n int) float64 { return float64(n) / float64(len(queries)) }
			b.ReportMetric(per(users), "horizon-users")
			b.ReportMetric(per(counts.tagUsers), "tag-users")
			b.ReportMetric(per(counts.lists), "lists")
			b.ReportMetric(per(counts.postings), "postings")
		})
	}
	join := func(i int, ans *Answer) error {
		return e.SocialMergeWithHorizonInto(queries[i], horizons[i], Options{RefineScores: true}, ans)
	}
	run("join", nil, join)
	run("join-evicted", make([]int64, 16<<20/8), join)
	run("probe", nil, func(i int, ans *Answer) error {
		return e.SocialMergeWithHorizonInto(queries[i], horizons[i], Options{RefineScores: true, MaxUsers: horizons[i].Size() + 1}, ans)
	})
	run("lazy", nil, func(i int, ans *Answer) error {
		return e.SocialMergeInto(queries[i], Options{RefineScores: true}, ans)
	})
}

// joinCounts sums what joinHorizon reads over queries: the users of
// the query tags' blocks its list pass scans, the (user, tag) lists of
// horizon users it sweeps and their postings, and Σ_t min(|users(t)|,
// |horizon|), the in-horizon lists it makes room for.
type joinCounts struct{ tagUsers, lists, postings, most int }

// add counts query q over horizon h on e, its tags deduped.
func (c *joinCounts) add(e *Engine, q Query, h *SeekerHorizon) {
	in := make(map[int32]bool, len(h.list))
	for _, entry := range h.list {
		in[entry.User] = true
	}
	for i, t := range q.Tags {
		if slices.Contains(q.Tags[:i], t) {
			continue
		}
		users := 0
		for _, b := range e.Store().TagBlocks(t) {
			us, end, _ := b.Lists()
			off := int32(0)
			for p, u := range us {
				if in[u] {
					c.lists++
					c.postings += int(end[p] - off)
				}
				off = end[p]
			}
			users += len(us)
		}
		c.tagUsers += users
		c.most += min(users, len(h.list))
	}
}

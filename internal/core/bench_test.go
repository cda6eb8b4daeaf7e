package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/proximity"
)

// BenchmarkRefineHorizonMerge times one exact (RefineScores) query in
// the shape fleetbench's hot reads have: the tier-1 corpus, the serving
// defaults for proximity and β, two neighbourhood-biased tags, k = 10.
//
//   - join:  over a cached horizon, the tag-pivoted join (what a cache
//     hit runs);
//   - probe: over the same cached horizon, one binary search per
//     (user, tag) pair. A MaxUsers budget one past the horizon never
//     fires but keeps the merge on mainLoop, which is how the cached
//     merge ran before the join existed;
//   - lazy:  no horizon, the live best-first expansion (what NoCache and
//     the oracle run).
//
// All three return the same answers: TestRefineJoinMatchesSettleLoop
// holds them to that.
func BenchmarkRefineHorizonMerge(b *testing.B) {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(5), 42)
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
	queries := make([]Query, len(specs))
	horizons := make([]*SeekerHorizon, len(specs))
	users := 0
	for i, s := range specs {
		queries[i] = Query{Seeker: s.Seeker, Tags: s.Tags, K: 10}
		if horizons[i], err = e.MaterializeHorizon(s.Seeker, 0); err != nil {
			b.Fatal(err)
		}
		users += horizons[i].Size()
	}
	run := func(name string, one func(i int, ans *Answer) error) {
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
				if err := one(n%len(queries), &ans); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(users)/float64(len(queries)), "horizon-users")
		})
	}
	run("join", func(i int, ans *Answer) error {
		return e.SocialMergeWithHorizonInto(queries[i], horizons[i], Options{RefineScores: true}, ans)
	})
	run("probe", func(i int, ans *Answer) error {
		return e.SocialMergeWithHorizonInto(queries[i], horizons[i], Options{RefineScores: true, MaxUsers: horizons[i].Size() + 1}, ans)
	})
	run("lazy", func(i int, ans *Answer) error {
		return e.SocialMergeInto(queries[i], Options{RefineScores: true}, ans)
	})
}

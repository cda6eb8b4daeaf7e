// Package repro's root benchmarks mirror the experiment registry: one
// testing.B benchmark per table/figure, so `go test -bench=. -benchmem`
// regenerates the evaluation's measurements in benchmark form. The
// richer tabular output (quality metrics, sweeps) comes from
// cmd/benchall; these benches give the wall-clock/allocation view of
// the same code paths.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/index"
	"repro/internal/overlay"
	"repro/internal/proximity"
	"repro/internal/search"
	"repro/internal/social"
	"repro/internal/tagstore"
)

// benchScale keeps benchmark corpora affordable while preserving the
// preset shapes (400 users at 0.2 of the 2000-user presets).
const benchScale = 0.2

func benchDataset(b *testing.B) *gen.Dataset {
	b.Helper()
	ds, err := gen.Generate(gen.DeliciousParams().Scale(benchScale), 42)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func benchEngine(b *testing.B, ds *gen.Dataset) *core.Engine {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Proximity = proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.1}
	e, err := core.NewEngine(ds.Graph, ds.Store, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func benchWorkload(b *testing.B, ds *gen.Dataset, n int) []gen.QuerySpec {
	b.Helper()
	wp := gen.DefaultWorkloadParams()
	wp.NumQueries = n
	qs, err := gen.Workload(ds, wp, 42)
	if err != nil {
		b.Fatal(err)
	}
	return qs
}

// BenchmarkTable1_DatasetStats covers Table 1: corpus generation plus
// structural statistics.
func BenchmarkTable1_DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds, err := gen.Generate(gen.DeliciousParams().Scale(benchScale), 42)
		if err != nil {
			b.Fatal(err)
		}
		_ = ds.Graph.ComputeStats(64)
		_ = ds.Store.ComputeStats()
	}
}

// BenchmarkTable2_IndexBuild covers Table 2: serializing a dataset to
// the on-disk format.
func BenchmarkTable2_IndexBuild(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := index.Write(io.Discard, ds.Graph, ds.Store); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3_Exactness covers Table 3: a SocialMerge/ExactSocial
// pair on the same query (the exactness comparison path).
func BenchmarkTable3_Exactness(b *testing.B) {
	ds := benchDataset(b)
	e := benchEngine(b, ds)
	qs := benchWorkload(b, ds, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := qs[i%len(qs)]
		q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: 10}
		if _, err := e.SocialMerge(q, core.Options{}); err != nil {
			b.Fatal(err)
		}
		if _, err := e.ExactSocial(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_TopK covers Fig 4: per-algorithm latency across k.
func BenchmarkFig4_TopK(b *testing.B) {
	ds := benchDataset(b)
	e := benchEngine(b, ds)
	qs := benchWorkload(b, ds, 8)
	algos := map[string]func(core.Query) (core.Answer, error){
		"SocialMerge": func(q core.Query) (core.Answer, error) { return e.SocialMerge(q, core.Options{}) },
		"ExactSocial": e.ExactSocial,
		"GlobalTopK":  e.GlobalTopK,
	}
	for _, name := range []string{"SocialMerge", "ExactSocial", "GlobalTopK"} {
		algo := algos[name]
		for _, k := range []int{1, 10, 100} {
			b.Run(fmt.Sprintf("%s/k=%d", name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					spec := qs[i%len(qs)]
					q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: k}
					if _, err := algo(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig5_Accesses covers Fig 5 by reporting the access counters
// as custom benchmark metrics.
func BenchmarkFig5_Accesses(b *testing.B) {
	ds := benchDataset(b)
	e := benchEngine(b, ds)
	qs := benchWorkload(b, ds, 8)
	var seq, rnd, settled int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec := qs[i%len(qs)]
		q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: 10}
		ans, err := e.SocialMerge(q, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		seq += ans.Access.Sequential
		rnd += ans.Access.Random
		settled += int64(ans.UsersSettled)
	}
	b.ReportMetric(float64(seq)/float64(b.N), "seq-accesses/op")
	b.ReportMetric(float64(rnd)/float64(b.N), "rand-accesses/op")
	b.ReportMetric(float64(settled)/float64(b.N), "users-settled/op")
}

// BenchmarkFig6_AlphaSweep covers Fig 6: latency under different hop
// damping factors.
func BenchmarkFig6_AlphaSweep(b *testing.B) {
	ds := benchDataset(b)
	qs := benchWorkload(b, ds, 8)
	for _, alpha := range []float64{0.5, 0.8, 1.0} {
		cfg := core.DefaultConfig()
		cfg.Proximity = proximity.Params{Alpha: alpha, SelfWeight: 1, MinSigma: 0.1}
		e, err := core.NewEngine(ds.Graph, ds.Store, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := qs[i%len(qs)]
				q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: 10}
				if _, err := e.SocialMerge(q, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7_SeekerDegree covers Fig 7: latency by seeker
// connectivity.
func BenchmarkFig7_SeekerDegree(b *testing.B) {
	ds := benchDataset(b)
	e := benchEngine(b, ds)
	for _, pct := range []int{10, 50, 99} {
		wp := gen.DefaultWorkloadParams()
		wp.NumQueries = 8
		wp.SeekerPercentile = pct
		qs, err := gen.Workload(ds, wp, 42)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pct=%d", pct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := qs[i%len(qs)]
				q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: 10}
				if _, err := e.SocialMerge(q, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig8_Approx covers Fig 8: the approximate variants.
func BenchmarkFig8_Approx(b *testing.B) {
	ds := benchDataset(b)
	e := benchEngine(b, ds)
	qs := benchWorkload(b, ds, 8)
	variants := []struct {
		name string
		opts core.Options
	}{
		{"exact", core.Options{}},
		{"theta=0.01", core.Options{Theta: 0.01}},
		{"hops=2", core.Options{MaxHops: 2}},
		{"maxusers=32", core.Options{MaxUsers: 32}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := qs[i%len(qs)]
				q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: 10}
				if _, err := e.SocialMerge(q, v.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9_Scalability covers Fig 9: latency vs network size.
func BenchmarkFig9_Scalability(b *testing.B) {
	for _, scale := range []float64{0.1, 0.2, 0.4} {
		p := gen.DeliciousParams().Scale(scale)
		ds, err := gen.Generate(p, 42)
		if err != nil {
			b.Fatal(err)
		}
		e := benchEngine(b, ds)
		qs := benchWorkload(b, ds, 8)
		for _, algo := range []string{"merge", "exact"} {
			b.Run(fmt.Sprintf("users=%d/%s", ds.Graph.NumUsers(), algo), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					spec := qs[i%len(qs)]
					q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: 10}
					var err error
					if algo == "merge" {
						_, err = e.SocialMerge(q, core.Options{})
					} else {
						_, err = e.ExactSocial(q)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig10_Ablation covers Fig 10: landmark pruning and
// materialized neighbourhoods.
func BenchmarkFig10_Ablation(b *testing.B) {
	ds := benchDataset(b)
	e := benchEngine(b, ds)
	lm, err := proximity.BuildLandmarks(ds.Graph, 8, e.ProximityParams())
	if err != nil {
		b.Fatal(err)
	}
	e.AttachLandmarks(lm)
	nbr, err := core.BuildNeighborhoods(ds.Graph, 64, e.ProximityParams())
	if err != nil {
		b.Fatal(err)
	}
	e.AttachNeighborhoods(nbr)
	qs := benchWorkload(b, ds, 8)
	variants := []struct {
		name string
		opts core.Options
	}{
		{"plain", core.Options{}},
		{"landmarks", core.Options{LandmarkPrune: true}},
		{"neighborhoods", core.Options{UseNeighborhoods: true}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := qs[i%len(qs)]
				q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: 10}
				if _, err := e.SocialMerge(q, v.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig11_BetaSweep covers Fig 11: the social/global blend.
func BenchmarkFig11_BetaSweep(b *testing.B) {
	ds := benchDataset(b)
	qs := benchWorkload(b, ds, 8)
	for _, beta := range []float64{0, 0.5, 1} {
		cfg := core.DefaultConfig()
		cfg.Proximity = proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.1}
		cfg.Beta = beta
		e, err := core.NewEngine(ds.Graph, ds.Store, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("beta=%g", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				spec := qs[i%len(qs)]
				q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: 10}
				if _, err := e.SocialMerge(q, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExt2_OverlayCompaction measures folding a 500-write delta
// into the snapshot (Ext 2).
func BenchmarkExt2_OverlayCompaction(b *testing.B) {
	ds := benchDataset(b)
	users := ds.Graph.NumUsers()
	items := ds.Store.NumItems()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o, err := overlay.New(ds.Graph, ds.Store)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 500; j++ {
			if err := o.Tag(int32((i+j*7)%users), int32((j*13)%items), 0); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if err := o.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexRead measures loading the on-disk format back.
func BenchmarkIndexRead(b *testing.B) {
	ds := benchDataset(b)
	var buf bytes.Buffer
	if err := index.Write(&buf, ds.Graph, ds.Store); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := index.Read(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSocialFacade measures the end-to-end named API.
func BenchmarkSocialFacade(b *testing.B) {
	svc, err := social.NewService(social.DefaultServiceConfig())
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < 50; u++ {
		a := fmt.Sprintf("user%d", u)
		c := fmt.Sprintf("user%d", (u+1)%50)
		if err := svc.Befriend(a, c, 0.6); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			if err := svc.Tag(a, fmt.Sprintf("item%d", (u*3+j)%40), "go"); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := svc.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Do(context.Background(), search.Request{
			Seeker: "user0", Tags: []string{"go"}, K: 10, Mode: search.ModeExact,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProximityIterator measures the incremental expansion itself.
func BenchmarkProximityIterator(b *testing.B) {
	ds := benchDataset(b)
	params := proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.1}
	seeker := ds.Graph.DegreePercentileUser(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := proximity.NewIterator(ds.Graph, seeker, params)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
	}
}

// TestBenchRegistrySmoke keeps the root package's tie to the experiment
// registry under test: every experiment must run at smoke scale.
func TestBenchRegistrySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("slow in -short mode")
	}
	cfg := bench.Config{Scale: 0.04, Seed: 3, Queries: 3}
	for _, e := range bench.All() {
		if err := e.Run(cfg, io.Discard); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
}

// TestStoreUniverseGuard double-checks the packed-id limit documented in
// tagstore (universe ids must stay below 2^21 for the point index).
func TestStoreUniverseGuard(t *testing.T) {
	const limit = 1 << 21
	for _, p := range gen.Presets() {
		big := p.Scale(8) // largest scale used anywhere in the suite
		if big.Graph.NumUsers >= limit || big.NumItems >= limit || big.NumTags >= limit {
			t.Fatalf("%s at scale 8 exceeds packed-id limit", p.Name)
		}
	}
	_ = tagstore.TagID(0)
}

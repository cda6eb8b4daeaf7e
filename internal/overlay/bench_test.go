package overlay

import (
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tagstore"
)

// benchScale is the corpus scale benchCompact generates at: the
// BENCH_SCALE environment variable, or 5 when it is unset. It reads the
// same variable as internal/core's engine benchmarks.
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

// benchCompact times one compaction of a batch of 64 writes — tags of
// them Tag calls with Zipf-drawn tags, the rest Befriend calls — into
// the generated corpus, by default the one fleetbench serves (scale 5:
// 10,000 users, ~1.1M triples; benchScale). Every iteration compacts a
// fresh batch into the same base, so ns/op is what one heartbeat costs
// one replica. Besides B/op, which counts the merge's scratch too, it
// reports what the new snapshot keeps of its own, by structure: the
// tag blocks, item blocks, global lists and tables of the store
// (tagstore.Store.OwnBytes) and the graph's page table and rewritten
// pages (graph.Graph.OwnBytes).
func benchCompact(b *testing.B, tags int) {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(benchScale(b)), 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tagZ := rand.NewZipf(rng, 1.1, 1, uint64(ds.Store.NumTags()-1))
	users := ds.Graph.NumUsers()
	var own tagstore.Footprint
	var graphBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		o, err := New(ds.Graph, ds.Store)
		if err != nil {
			b.Fatal(err)
		}
		for w := 0; w < 64; w++ {
			u := graph.UserID(rng.Intn(users))
			if w < tags {
				err = o.Tag(u, tagstore.ItemID(rng.Intn(ds.Store.NumItems())), tagstore.TagID(tagZ.Uint64()))
			} else {
				err = o.Befriend(u, (u+1+graph.UserID(rng.Intn(users-1)))%graph.UserID(users), 0.5)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		// Collect the previous iteration's garbage here, untimed: at
		// scale 50 the corpus makes a cycle cost milliseconds, which
		// would otherwise land in some timed Compacts and not others.
		runtime.GC()
		b.StartTimer()
		if err := o.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		g, s := o.Snapshot()
		f := s.OwnBytes(ds.Store)
		own.TagBlocks += f.TagBlocks
		own.ItemBlocks += f.ItemBlocks
		own.Global += f.Global
		own.Headers += f.Headers
		graphBytes += g.OwnBytes(ds.Graph)
		b.StartTimer()
	}
	n := float64(b.N)
	b.ReportMetric(float64(own.TagBlocks)/n, "tagblocks-B/op")
	b.ReportMetric(float64(own.ItemBlocks)/n, "itemblocks-B/op")
	b.ReportMetric(float64(own.Global)/n, "global-B/op")
	b.ReportMetric(float64(own.Headers)/n, "headers-B/op")
	b.ReportMetric(float64(graphBytes)/n, "graph-B/op")
}

func BenchmarkCompact64Tags(b *testing.B)  { benchCompact(b, 64) }
func BenchmarkCompact64Mixed(b *testing.B) { benchCompact(b, 51) }

// BenchmarkChurnOwnBytes replays the write side of fleetbench's
// mixed_churn on one replica: 4 folds of 64 writes into the generated
// corpus (benchScale), every fifth write a Befriend between two uniform
// users and the others Tags of a uniform user and item with a Zipf 1.1
// tag — 205 Tags and 51 Befriends in all. It reports what the last
// snapshot owns beside the corpus, by structure: Store.OwnBytes and
// Graph.OwnBytes against the base, and their sum. Every iteration
// replays the same writes, so the metrics are exact, not averages.
func BenchmarkChurnOwnBytes(b *testing.B) {
	const folds, writes = 4, 64
	ds, err := gen.Generate(gen.DeliciousParams().Scale(benchScale(b)), 42)
	if err != nil {
		b.Fatal(err)
	}
	users, items := ds.Graph.NumUsers(), ds.Store.NumItems()
	var own tagstore.Footprint
	var graphBytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		tagZ := rand.NewZipf(rng, 1.1, 1, uint64(ds.Store.NumTags()-1))
		o, err := New(ds.Graph, ds.Store)
		if err != nil {
			b.Fatal(err)
		}
		for w := 0; w < folds*writes; w++ {
			if w%5 == 4 {
				u := graph.UserID(rng.Intn(users))
				err = o.Befriend(u, (u+1+graph.UserID(rng.Intn(users-1)))%graph.UserID(users), 0.5)
			} else {
				err = o.Tag(graph.UserID(rng.Intn(users)), tagstore.ItemID(rng.Intn(items)), tagstore.TagID(tagZ.Uint64()))
			}
			if err != nil {
				b.Fatal(err)
			}
			if (w+1)%writes == 0 {
				if err := o.Compact(); err != nil {
					b.Fatal(err)
				}
			}
		}
		g, s := o.Snapshot()
		own = s.OwnBytes(ds.Store)
		graphBytes = g.OwnBytes(ds.Graph)
	}
	b.ReportMetric(float64(own.TagBlocks), "tagblocks-B")
	b.ReportMetric(float64(own.ItemBlocks), "itemblocks-B")
	b.ReportMetric(float64(own.Global), "global-B")
	b.ReportMetric(float64(own.Headers), "headers-B")
	b.ReportMetric(float64(graphBytes), "graph-B")
	b.ReportMetric(float64(own.TagBlocks+own.ItemBlocks+own.Global+own.Headers+graphBytes), "own-B")
}

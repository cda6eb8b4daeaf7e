package tagstore_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/tagstore"
)

// benchScale is the corpus scale the store benchmarks generate at: the
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

// The corpus fleetbench serves at the default scale 5: 10,000 users,
// ~1.1M triples.
func benchStore(b *testing.B) *tagstore.Store {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(benchScale(b)), 42)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Store
}

// BenchmarkBuilderBuild is a from-scratch build: what a restart or a
// snapshot load pays, and what every compaction paid before Merge. It
// feeds the builder the relation in two orders: canonical, as
// Triples() writes it out, already sorted by (user, tag, item); and
// generation, user-major with each user's triples shuffled, the way
// gen.Generate and load add them.
func BenchmarkBuilderBuild(b *testing.B) {
	s := benchStore(b)
	canonical := s.Triples()
	generation := slices.Clone(canonical)
	rng := rand.New(rand.NewSource(1))
	for lo := 0; lo < len(generation); {
		hi := lo
		for hi < len(generation) && generation[hi].User == generation[lo].User {
			hi++
		}
		run := generation[lo:hi]
		rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
		lo = hi
	}
	for _, c := range []struct {
		name string
		trs  []tagstore.Triple
	}{{"canonical", canonical}, {"generation", generation}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tb := tagstore.NewBuilder(s.NumUsers(), s.NumItems(), s.NumTags())
				for _, tr := range c.trs {
					tb.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
				}
				if _, err := tb.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var sinkTriples []tagstore.Triple

// BenchmarkTriples writes the relation out in canonical order, the
// O(triples) step a checkpoint, an export or an item-index build pays
// now that a store does not keep that array.
func BenchmarkTriples(b *testing.B) {
	s := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkTriples = s.Triples()
	}
}

var sinkTF int32

// BenchmarkStoreTF looks up triples that exist, in random order.
func BenchmarkStoreTF(b *testing.B) {
	s := benchStore(b)
	trs := s.Triples()
	rng := rand.New(rand.NewSource(1))
	probe := make([]tagstore.Triple, 1<<12)
	for i := range probe {
		probe[i] = trs[rng.Intn(len(trs))]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := probe[i&(len(probe)-1)]
		sinkTF += s.TF(tr.User, tr.Item, tr.Tag)
	}
}

var sinkPostings int

// tagUsers is how many users used tag t.
func tagUsers(s *tagstore.Store, t tagstore.TagID) int {
	n := 0
	for _, b := range s.TagBlocks(t) {
		users, _, _ := b.Lists()
		n += len(users)
	}
	return n
}

// BenchmarkUserList probes one tag's lists for users drawn at random
// from the whole universe, as the lazy merge probes every user its
// frontier settles: under the tag with the median number of users
// nearly every probe misses, under a top-1% tag about one in six hits.
func BenchmarkUserList(b *testing.B) {
	s := benchStore(b)
	var used []tagstore.TagID
	for t := tagstore.TagID(0); int(t) < s.NumTags(); t++ {
		if tagUsers(s, t) > 0 {
			used = append(used, t)
		}
	}
	slices.SortFunc(used, func(x, y tagstore.TagID) int { return cmp.Compare(tagUsers(s, x), tagUsers(s, y)) })
	rng := rand.New(rand.NewSource(1))
	probe := make([]int32, 1<<12)
	for i := range probe {
		probe[i] = int32(rng.Intn(s.NumUsers()))
	}
	for _, c := range []struct {
		name string
		tag  tagstore.TagID
	}{{"median", used[len(used)/2]}, {"top1pct", used[len(used)*99/100]}} {
		b.Run(fmt.Sprintf("%s-%dusers", c.name, tagUsers(s, c.tag)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkPostings += len(s.UserList(probe[i&(len(probe)-1)], c.tag))
			}
		})
	}
}

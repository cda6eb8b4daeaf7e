package tagstore_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/tagstore"
)

// The corpus fleetbench serves: 10,000 users, ~1.1M triples.
func benchStore(b *testing.B) *tagstore.Store {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(5), 42)
	if err != nil {
		b.Fatal(err)
	}
	return ds.Store
}

// BenchmarkBuilderBuild is a from-scratch build: what a restart or a
// snapshot load pays, and what every compaction paid before Merge.
func BenchmarkBuilderBuild(b *testing.B) {
	s := benchStore(b)
	trs := s.Triples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := tagstore.NewBuilder(s.NumUsers(), s.NumItems(), s.NumTags())
		for _, tr := range trs {
			tb.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
		}
		if _, err := tb.Build(); err != nil {
			b.Fatal(err)
		}
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

// BenchmarkUserList probes one tag's lists for users drawn at random
// from the whole universe, as the lazy merge probes every user its
// frontier settles: under the tag with the median number of users
// nearly every probe misses, under a top-1% tag about one in six hits.
func BenchmarkUserList(b *testing.B) {
	s := benchStore(b)
	var used []tagstore.TagID
	for t := tagstore.TagID(0); int(t) < s.NumTags(); t++ {
		if users, _, _ := s.TagLists(t); len(users) > 0 {
			used = append(used, t)
		}
	}
	slices.SortFunc(used, func(x, y tagstore.TagID) int {
		ux, _, _ := s.TagLists(x)
		uy, _, _ := s.TagLists(y)
		return cmp.Compare(len(ux), len(uy))
	})
	rng := rand.New(rand.NewSource(1))
	probe := make([]int32, 1<<12)
	for i := range probe {
		probe[i] = int32(rng.Intn(s.NumUsers()))
	}
	for _, c := range []struct {
		name string
		tag  tagstore.TagID
	}{{"median", used[len(used)/2]}, {"top1pct", used[len(used)*99/100]}} {
		users, _, _ := s.TagLists(c.tag)
		b.Run(fmt.Sprintf("%s-%dusers", c.name, len(users)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkPostings += len(s.UserList(probe[i&(len(probe)-1)], c.tag))
			}
		})
	}
}

package tagstore_test

import (
	"math/rand"
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb := tagstore.NewBuilder(s.NumUsers(), s.NumItems(), s.NumTags())
		for _, tr := range s.Triples() {
			tb.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
		}
		if _, err := tb.Build(); err != nil {
			b.Fatal(err)
		}
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

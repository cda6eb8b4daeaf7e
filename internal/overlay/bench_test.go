package overlay

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/tagstore"
)

// benchCompact times one compaction of a batch of 64 writes — tags of
// them Tag calls with Zipf-drawn tags, the rest Befriend calls — into
// the corpus fleetbench serves (10,000 users, ~1.1M triples). Every
// iteration compacts a fresh batch into the same base, so ns/op is what
// one heartbeat costs one replica.
func benchCompact(b *testing.B, tags int) {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(5), 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tagZ := rand.NewZipf(rng, 1.1, 1, uint64(ds.Store.NumTags()-1))
	users := ds.Graph.NumUsers()
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
		b.StartTimer()
		if err := o.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompact64Tags(b *testing.B)  { benchCompact(b, 64) }
func BenchmarkCompact64Mixed(b *testing.B) { benchCompact(b, 51) }

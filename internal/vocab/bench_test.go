package vocab

import (
	"fmt"
	"runtime"
	"testing"
)

// BenchmarkDictSet builds the three dictionaries of a fleetbench corpus
// (names u%d, i%d and t%d) at scale 5 (10k users, 40k items, 6k tags)
// and scale 50 (ten times each), then times a Clone of all three.
// heap-B/name is the heap the set holds per name after a GC, the name
// strings included; dict-B/name is what the dictionaries themselves
// hold (the names slices' capacity and the indexes), exactly.
func BenchmarkDictSet(b *testing.B) {
	for _, sc := range []struct {
		name               string
		users, items, tags int
	}{{"names=56k", 10000, 40000, 6000}, {"names=560k", 100000, 400000, 60000}} {
		b.Run(sc.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			s := NewSet()
			for _, u := range []struct {
				d      *Dict
				prefix string
				n      int
			}{{s.Users, "u", sc.users}, {s.Items, "i", sc.items}, {s.Tags, "t", sc.tags}} {
				for i := 0; i < u.n; i++ {
					u.d.MustAdd(fmt.Sprintf("%s%d", u.prefix, i))
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			n := float64(sc.users + sc.items + sc.tags)
			dict := 0
			for _, d := range []*Dict{s.Users, s.Items, s.Tags} {
				dict += 16*cap(d.names) + 4*len(d.index)
			}
			b.ReportAllocs()
			b.ResetTimer()
			sink := 0
			for i := 0; i < b.N; i++ {
				u, it, tg := s.Users.Clone(), s.Items.Clone(), s.Tags.Clone()
				sink += u.Len() + it.Len() + tg.Len()
			}
			b.StopTimer()
			if sink != b.N*int(n) {
				b.Fatal("clones lost names")
			}
			b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/n, "heap-B/name")
			b.ReportMetric(float64(dict)/n, "dict-B/name")
			runtime.KeepAlive(s)
		})
	}
}

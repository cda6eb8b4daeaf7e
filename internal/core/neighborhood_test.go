package core

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proximity"
)

// TestBuildNeighborhoodsAllocatesPerList: building the index allocates in
// proportion to what it keeps — n lists of at most L entries — not an
// iterator's universe-sized state per user (12 bytes × n for each of n
// users: 108 MB here, about 1.2 GB on the fleetbench corpus). Every list
// and residual is what a fresh expansion cut at L users gives.
func TestBuildNeighborhoodsAllocatesPerList(t *testing.T) {
	const users, l = 3000, 8
	g, err := gen.NewGraph(gen.GraphParams{Kind: gen.BarabasiAlbert, NumUsers: users, M: 3, MinWeight: 0.2, MaxWeight: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	params := proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.05}
	if _, err := BuildNeighborhoods(g, l, params); err != nil { // warms the iterator pool to this graph
		t.Fatal(err)
	}
	// A collection may empty the pool; keep it from charging a refill
	// to the build.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx, err := BuildNeighborhoods(g, l, params)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	// What the index keeps: a 16-byte entry per listed user, plus a
	// residual and a slice header per user. Twice that is 1/100th of the
	// per-user iterator state.
	if bytes, limit := after.TotalAlloc-before.TotalAlloc, uint64(2*users*(16*l+8+24)); bytes > limit && !raceEnabled {
		t.Fatalf("BuildNeighborhoods allocated %d bytes for %d users at L = %d, want at most %d", bytes, users, l, limit)
	}
	for u := graph.UserID(0); u < users; u += 7 {
		it, err := proximity.NewIterator(g, u, params)
		if err != nil {
			t.Fatal(err)
		}
		var want []proximity.Entry
		for len(want) < l {
			e, ok := it.Next()
			if !ok {
				break
			}
			want = append(want, e)
		}
		list, residual := idx.Horizon(u)
		if !slices.Equal(list, want) || residual != it.PeekBound() {
			t.Fatalf("user %d: index holds %v (residual %g), an expansion gives %v (residual %g)", u, list, residual, want, it.PeekBound())
		}
	}
}

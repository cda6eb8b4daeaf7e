package proximity

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// refIterator is the iterator's contract written with nothing clever in
// it: no heap (each step scans every user for the best unsettled one, σ
// descending then id ascending), no row skip, no epoch stamps. A
// candidate is σ·w·α in the expansion's order; one below MinSigma is
// never recorded, and a recorded σ (with the hop count that came with
// it) is replaced only by a strictly larger candidate.
type refIterator struct {
	g       *graph.Graph
	params  Params
	best    []float64 // tentative σ; 0 untouched
	hops    []int32
	settled []bool
}

func newRefIterator(g *graph.Graph, seeker graph.UserID, params Params) *refIterator {
	n := g.NumUsers()
	r := &refIterator{g: g, params: params, best: make([]float64, n), hops: make([]int32, n), settled: make([]bool, n)}
	r.best[seeker] = params.SelfWeight
	return r
}

// top is the best unsettled user with a recorded σ, or -1.
func (r *refIterator) top() int {
	u := -1
	for v, p := range r.best {
		if !r.settled[v] && p > 0 && (u < 0 || p > r.best[u]) {
			u = v
		}
	}
	return u
}

func (r *refIterator) next() (Entry, bool) {
	u := r.top()
	if u < 0 {
		return Entry{}, false
	}
	r.settled[u] = true
	p := r.best[u]
	nbrs, wts := r.g.Neighbors(graph.UserID(u))
	for i, v := range nbrs {
		cand := p * wts[i] * r.params.Alpha
		if cand >= r.params.MinSigma && !r.settled[v] && cand > r.best[v] {
			r.best[v], r.hops[v] = cand, r.hops[u]+1
		}
	}
	return Entry{User: graph.UserID(u), Hops: r.hops[u], Prox: p}, true
}

func (r *refIterator) bound() float64 {
	if u := r.top(); u >= 0 {
		return r.best[u]
	}
	return 0
}

// checkAgainstReference expands seeker with a pooled Iterator and with
// refIterator side by side. steps drives the iterator: 0 is one Next,
// k > 0 one Settle(k); after the steps, Next drains the expansion. Every
// entry must equal the reference's — user, hops, proximity bit for bit —
// and so must PeekBound after every step.
func checkAgainstReference(t *testing.T, g *graph.Graph, seeker graph.UserID, params Params, steps []int) {
	t.Helper()
	it, err := AcquireIterator(g, seeker, params)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Release()
	ref := newRefIterator(g, seeker, params)
	settled, staged := 0, 0
	check := func(step int, got Entry, ok bool) {
		t.Helper()
		want, wantOK := ref.next()
		same := got.User == want.User && got.Hops == want.Hops && math.Float64bits(got.Prox) == math.Float64bits(want.Prox)
		if ok != wantOK || ok && !same {
			t.Fatalf("seeker %d %+v, step %d, entry %d: iterator %+v %v, reference %+v %v",
				seeker, params, step, settled, got, ok, want, wantOK)
		}
		if ok {
			settled++
		}
	}
	for step := 0; ; step++ {
		if step < len(steps) && steps[step] > 0 {
			n := steps[step]
			buf := it.Settle(n)
			for _, e := range buf[staged:] {
				check(step, e, true)
			}
			if len(buf)-staged < n {
				check(step, Entry{}, false) // Settle came up short: exhausted
			}
			staged = len(buf)
		} else {
			e, ok := it.Next()
			check(step, e, ok)
			if !ok && step >= len(steps) {
				break
			}
		}
		if got, want := it.PeekBound(), ref.bound(); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("seeker %d %+v, step %d: PeekBound %g, reference %g", seeker, params, step, got, want)
		}
	}
	if it.Expanded() != settled {
		t.Fatalf("seeker %d %+v: Expanded() = %d, settled %d", seeker, params, it.Expanded(), settled)
	}
}

// referenceParams: the serving α and no damping, each with no floor, the
// serving floor and a floor at the self weight.
func referenceParams() []Params {
	var ps []Params
	for _, alpha := range []float64{0.6, 1} {
		for _, floor := range []float64{0, 0.05, 1} {
			ps = append(ps, Params{Alpha: alpha, SelfWeight: 1, MinSigma: floor})
		}
	}
	return ps
}

// tiedEdges draws about 2n random edges whose weights tie often: most
// 0.5, some 1 and some 0.8.
func tiedEdges(rng *rand.Rand, n int) []graph.Edge {
	var edges []graph.Edge
	for e := 0; e < 2*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			edges = append(edges, graph.Edge{U: graph.UserID(u), V: graph.UserID(v), Weight: []float64{0.5, 0.5, 0.5, 1, 0.8}[rng.Intn(5)]})
		}
	}
	return edges
}

// TestIteratorMatchesReference: on random graphs with tied weights, the
// iterator settles the reference's users in the reference's order with
// the same proximity bits and hop counts, and PeekBound matches the
// reference's bound after every step — under every proximity setting,
// through mixed Next and Settle calls. Every other graph is reached by a
// Merge that raises its largest weight from 0.5: a skip that read the
// old graph's would leave the strong edges unrelaxed.
func TestIteratorMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		edges := tiedEdges(rng, n)
		var weak, strong []graph.Edge
		for _, e := range edges {
			if e.Weight == 0.5 || seed%2 == 1 {
				weak = append(weak, e)
			} else {
				strong = append(strong, e)
			}
		}
		g, err := graph.NewBuilder(n).Build()
		if err != nil {
			t.Fatal(err)
		}
		if g, err = g.Merge(weak, n); err != nil {
			t.Fatal(err)
		}
		before := g.MaxWeight()
		if g, err = g.Merge(strong, n); err != nil {
			t.Fatal(err)
		}
		if len(strong) > 0 && !(before <= 0.5 && g.MaxWeight() > 0.5) {
			t.Fatalf("seed %d: MaxWeight %g before the strong edges, %g after", seed, before, g.MaxWeight())
		}
		for _, params := range referenceParams() {
			for k := 0; k < 3; k++ {
				steps := make([]int, rng.Intn(12))
				for i := range steps {
					if rng.Intn(2) == 0 {
						steps[i] = 1 + rng.Intn(9)
					}
				}
				checkAgainstReference(t, g, graph.UserID(rng.Intn(n)), params, steps)
			}
		}
	}
}

// FuzzIteratorMatchesReference is the same comparison over graphs the
// fuzzer writes: edges are byte triples (u, v, weight class), knobs picks
// the proximity setting and the seeker, and each step byte is a Next (0)
// or a Settle of up to 7 users.
func FuzzIteratorMatchesReference(f *testing.F) {
	f.Add(uint8(6), []byte{0, 1, 0, 1, 2, 0, 2, 3, 2, 0, 3, 0, 3, 4, 1, 4, 5, 0}, uint8(1), []byte{0, 3, 0, 2})
	f.Add(uint8(9), []byte{0, 1, 1, 1, 2, 1, 0, 2, 0, 2, 3, 2, 3, 8, 0, 5, 6, 1}, uint8(14), []byte{5})
	f.Add(uint8(4), []byte{0, 1, 0, 0, 2, 0, 1, 3, 0, 2, 3, 0}, uint8(3), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, edges []byte, knobs uint8, steps []byte) {
		users := 1 + int(n)%64
		b := graph.NewBuilder(users)
		for i := 0; i+2 < len(edges) && i < 3*256; i += 3 {
			u, v := graph.UserID(int(edges[i])%users), graph.UserID(int(edges[i+1])%users)
			if u != v {
				b.AddEdge(u, v, []float64{0.5, 1, 0.8, 0.25}[edges[i+2]%4])
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		calls := make([]int, len(steps))
		for i, s := range steps {
			calls[i] = int(s % 8)
		}
		ps := referenceParams()
		checkAgainstReference(t, g, graph.UserID(int(knobs/8)%users), ps[int(knobs)%len(ps)], calls)
	})
}

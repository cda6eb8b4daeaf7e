package proximity

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func buildGraph(t testing.TB, n int, edges []graph.Edge) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.U, e.V, e.Weight)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pathGraph(t testing.TB, n int, w float64) *graph.Graph {
	t.Helper()
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{U: graph.UserID(i), V: graph.UserID(i + 1), Weight: w})
	}
	return buildGraph(t, n, edges)
}

func randomGraph(rng *rand.Rand, n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.UserID(i), graph.UserID(rng.Intn(i)), 0.1+0.9*rng.Float64())
	}
	for e := 0; e < n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.UserID(u), graph.UserID(v), 0.1+0.9*rng.Float64())
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestParamsValidate(t *testing.T) {
	good := []Params{DefaultParams(), {Alpha: 0.5, SelfWeight: 0.9}}
	for _, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("%+v rejected: %v", p, err)
		}
	}
	bad := []Params{
		{Alpha: 0, SelfWeight: 1},
		{Alpha: 1.5, SelfWeight: 1},
		{Alpha: 1, SelfWeight: 0},
		{Alpha: 1, SelfWeight: 2},
		{Alpha: -1, SelfWeight: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("%+v accepted", p)
		}
	}
}

func TestIteratorYieldsSeekerFirst(t *testing.T) {
	g := pathGraph(t, 4, 0.5)
	it, err := NewIterator(g, 2, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e, ok := it.Next()
	if !ok || e.User != 2 || e.Prox != 1.0 || e.Hops != 0 {
		t.Fatalf("first entry = %+v, %v", e, ok)
	}
}

func TestIteratorMonotoneAndComplete(t *testing.T) {
	g := pathGraph(t, 6, 0.7)
	it, err := NewIterator(g, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var entries []Entry
	prev := math.Inf(1)
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		if e.Prox > prev+1e-15 {
			t.Fatalf("non-monotone: %g after %g", e.Prox, prev)
		}
		prev = e.Prox
		entries = append(entries, e)
	}
	if len(entries) != 6 {
		t.Fatalf("settled %d users, want 6", len(entries))
	}
}

func TestIteratorMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 60)
	params := Params{Alpha: 0.9, SelfWeight: 1.0}
	want, err := All(g, 3, params)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIterator(g, 3, params)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, g.NumUsers())
	for {
		e, ok := it.Next()
		if !ok {
			break
		}
		got[e.User] = e.Prox
	}
	for u := range want {
		if math.Abs(got[u]-want[u]) > 1e-12 {
			t.Fatalf("user %d: iterator %g, batch %g", u, got[u], want[u])
		}
	}
}

// TestSettleStagesWhatNextYields: Settle in steps returns the users Next
// would, accumulated, reports exhaustion by coming up short, and a
// pooled iterator's next expansion starts from an empty buffer.
func TestSettleStagesWhatNextYields(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(13)), 60)
	params := Params{Alpha: 0.9, SelfWeight: 1.0}
	ref, err := NewIterator(g, 5, params)
	if err != nil {
		t.Fatal(err)
	}
	var want []Entry
	for e, ok := ref.Next(); ok; e, ok = ref.Next() {
		want = append(want, e)
	}
	for round := 0; round < 2; round++ { // the second round reuses the first's iterator
		it, err := AcquireIterator(g, 5, params)
		if err != nil {
			t.Fatal(err)
		}
		var got []Entry
		for settled := -1; len(got) > settled; {
			settled = len(got)
			got = it.Settle(7)
			if len(got) > settled+7 {
				t.Fatalf("Settle(7) added %d users", len(got)-settled)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d: Settle staged %v, Next yields %v", round, got, want)
		}
		if n := len(it.Settle(0)); n != len(want) {
			t.Fatalf("Settle(0) changed the buffer to %d users", n)
		}
		it.Release()
	}
}

func TestIteratorPeekBoundIsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 50)
	it, err := NewIterator(g, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for {
		bound := it.PeekBound()
		e, ok := it.Next()
		if !ok {
			if bound != 0 {
				t.Fatalf("exhausted iterator has bound %g", bound)
			}
			break
		}
		if e.Prox > bound+1e-12 {
			t.Fatalf("bound %g < next proximity %g", bound, e.Prox)
		}
	}
}

func TestIteratorSeekerOutOfRange(t *testing.T) {
	g := pathGraph(t, 3, 0.5)
	if _, err := NewIterator(g, 7, DefaultParams()); err == nil {
		t.Fatal("out-of-range seeker accepted")
	}
	if _, err := NewIterator(g, -1, DefaultParams()); err == nil {
		t.Fatal("negative seeker accepted")
	}
	if _, err := All(g, 9, DefaultParams()); err == nil {
		t.Fatal("All accepted out-of-range seeker")
	}
}

func TestIteratorDisconnected(t *testing.T) {
	g := buildGraph(t, 4, []graph.Edge{{U: 0, V: 1, Weight: 0.5}})
	it, err := NewIterator(g, 0, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		if _, ok := it.Next(); !ok {
			break
		}
		count++
	}
	if count != 2 {
		t.Fatalf("settled %d users in a 2-user component", count)
	}
	if it.Expanded() != 2 {
		t.Fatalf("Expanded() = %d, want 2", it.Expanded())
	}
}

func TestAlphaDampingOrdersByHops(t *testing.T) {
	// Strong far edge vs weak near edge: with heavy damping the near,
	// weak friend wins.
	g := buildGraph(t, 4, []graph.Edge{
		{U: 0, V: 1, Weight: 0.4}, // 1 hop, weak
		{U: 0, V: 2, Weight: 1.0},
		{U: 2, V: 3, Weight: 1.0}, // user 3: 2 hops, strong
	})
	weak := Params{Alpha: 0.3, SelfWeight: 1}
	prox, err := All(g, 0, weak)
	if err != nil {
		t.Fatal(err)
	}
	// σ(1) = 0.3*0.4 = 0.12; σ(3) = 0.3^2 = 0.09 < 0.12
	if prox[1] <= prox[3] {
		t.Fatalf("damping failed: σ(1)=%g σ(3)=%g", prox[1], prox[3])
	}
	strong := Params{Alpha: 1.0, SelfWeight: 1}
	prox2, err := All(g, 0, strong)
	if err != nil {
		t.Fatal(err)
	}
	// undamped: σ(1) = 0.4 < σ(3) = 1.0
	if prox2[1] >= prox2[3] {
		t.Fatalf("undamped order wrong: σ(1)=%g σ(3)=%g", prox2[1], prox2[3])
	}
}

func TestRWRBasics(t *testing.T) {
	g := pathGraph(t, 5, 1.0)
	pi, err := RWR(g, 0, DefaultRWRParams())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for u, p := range pi {
		if p < 0 {
			t.Fatalf("negative mass at %d", u)
		}
		sum += p
	}
	// Beyond the seeker's immediate neighbourhood, mass decays with
	// distance (degree effects may elevate node 1 above node 0).
	if !(pi[1] > pi[2] && pi[2] > pi[3] && pi[3] > pi[4]) {
		t.Fatalf("RWR tail not decaying: pi=%v", pi)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("mass sum = %g, want 1", sum)
	}
	if pi[0] < pi[4]*2 {
		t.Fatalf("seeker mass %g not dominant over far vertex %g", pi[0], pi[4])
	}
}

func TestRWRValidation(t *testing.T) {
	g := pathGraph(t, 3, 0.5)
	if _, err := RWR(g, 9, DefaultRWRParams()); err == nil {
		t.Fatal("out-of-range seeker accepted")
	}
	if _, err := RWR(g, 0, RWRParams{Restart: 0}); err == nil {
		t.Fatal("restart 0 accepted")
	}
	if _, err := RWR(g, 0, RWRParams{Restart: 1}); err == nil {
		t.Fatal("restart 1 accepted")
	}
}

func TestRWRIsolatedSeeker(t *testing.T) {
	g := buildGraph(t, 3, []graph.Edge{{U: 1, V: 2, Weight: 0.5}})
	pi, err := RWR(g, 0, DefaultRWRParams())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pi[0]-1) > 1e-9 || pi[1] != 0 || pi[2] != 0 {
		t.Fatalf("isolated seeker mass = %v", pi)
	}
}

func TestLandmarkLowerBoundSound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 50)
	params := DefaultParams()
	idx, err := BuildLandmarks(g, 5, params)
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumLandmarks() != 5 {
		t.Fatalf("NumLandmarks = %d", idx.NumLandmarks())
	}
	for trial := 0; trial < 10; trial++ {
		s := graph.UserID(rng.Intn(50))
		exact, err := All(g, s, params)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 50; v++ {
			lb := idx.LowerBound(s, graph.UserID(v))
			if lb > exact[v]+1e-12 {
				t.Fatalf("landmark lower bound %g exceeds σ(%d,%d)=%g", lb, s, v, exact[v])
			}
		}
	}
}

func TestLandmarkCountClamped(t *testing.T) {
	g := pathGraph(t, 4, 0.5)
	idx, err := BuildLandmarks(g, 100, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if idx.NumLandmarks() != 4 {
		t.Fatalf("NumLandmarks = %d, want clamp to 4", idx.NumLandmarks())
	}
	if _, err := BuildLandmarks(g, 0, DefaultParams()); err == nil {
		t.Fatal("zero landmarks accepted")
	}
	if idx.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes not positive")
	}
}

func TestLandmarkHeuristicRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 30)
	idx, err := BuildLandmarks(g, 3, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 30; s++ {
		for v := 0; v < 30; v++ {
			est := idx.UpperBoundHeuristic(graph.UserID(s), graph.UserID(v))
			if est < 0 || est > 1 {
				t.Fatalf("heuristic estimate %g outside [0,1]", est)
			}
		}
	}
}

func TestPropertyIteratorEqualsBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n)
		s := graph.UserID(rng.Intn(n))
		params := Params{Alpha: 0.5 + rng.Float64()/2, SelfWeight: 1}
		want, err := All(g, s, params)
		if err != nil {
			return false
		}
		it, err := NewIterator(g, s, params)
		if err != nil {
			return false
		}
		got := make([]float64, n)
		for {
			e, ok := it.Next()
			if !ok {
				break
			}
			got[e.User] = e.Prox
		}
		for u := range want {
			if math.Abs(got[u]-want[u]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRWRMassConserved(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		g := randomGraph(rng, n)
		s := graph.UserID(rng.Intn(n))
		pi, err := RWR(g, s, DefaultRWRParams())
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range pi {
			if p < -1e-12 {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package graph

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// path builds the path graph 0-1-2-...-(n-1) with uniform weight w.
func path(t testing.TB, n int, w float64) *Graph {
	t.Helper()
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(UserID(i), UserID(i+1), w)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("path(%d): %v", n, err)
	}
	return g
}

func triangle(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.25)
	b.AddEdge(0, 2, 0.75)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildEmpty(t *testing.T) {
	g, err := NewBuilder(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumUsers() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph has %d users, %d edges", g.NumUsers(), g.NumEdges())
	}
}

func TestBuildNoEdges(t *testing.T) {
	g, err := NewBuilder(5).Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumUsers() != 5 || g.NumEdges() != 0 {
		t.Fatalf("got %d users, %d edges", g.NumUsers(), g.NumEdges())
	}
	for u := UserID(0); u < 5; u++ {
		if g.Degree(u) != 0 {
			t.Fatalf("user %d degree = %d, want 0", u, g.Degree(u))
		}
	}
}

func TestBuildRejectsSelfLoop(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(1, 1, 0.5)
	if _, err := b.Build(); err == nil {
		t.Fatal("self-loop accepted")
	}
}

func TestBuildRejectsOutOfRange(t *testing.T) {
	for _, e := range []Edge{{U: -1, V: 0, Weight: 0.5}, {U: 0, V: 3, Weight: 0.5}} {
		b := NewBuilder(3)
		b.AddEdge(e.U, e.V, e.Weight)
		if _, err := b.Build(); err == nil {
			t.Fatalf("edge %+v accepted", e)
		}
	}
}

// TestBuildRejectsBadWeight: Build and the load path, FromSortedEdges,
// reject a weight outside (0, 1], NaN included.
func TestBuildRejectsBadWeight(t *testing.T) {
	for _, w := range []float64{0, -0.5, 1.5, math.NaN(), math.Inf(1)} {
		b := NewBuilder(2)
		b.AddEdge(0, 1, w)
		if _, err := b.Build(); err == nil {
			t.Errorf("Build: weight %g accepted", w)
		}
		if _, err := FromSortedEdges(2, []Edge{{U: 0, V: 1, Weight: w}}); err == nil {
			t.Errorf("FromSortedEdges: weight %g accepted", w)
		}
	}
}

func TestDuplicateEdgesKeepMaxWeight(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0.3)
	b.AddEdge(1, 0, 0.8) // reversed orientation, higher weight
	b.AddEdge(0, 1, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	w, ok := g.EdgeWeight(0, 1)
	if !ok || w != 0.8 {
		t.Fatalf("EdgeWeight(0,1) = %g,%v want 0.8,true", w, ok)
	}
}

func TestNeighborsSortedAndSymmetric(t *testing.T) {
	g := triangle(t)
	for u := UserID(0); u < 3; u++ {
		nbrs, wts := g.Neighbors(u)
		if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
			t.Fatalf("neighbours of %d not sorted: %v", u, nbrs)
		}
		for i, v := range nbrs {
			w2, ok := g.EdgeWeight(v, u)
			if !ok || w2 != wts[i] {
				t.Fatalf("asymmetric edge (%d,%d)", u, v)
			}
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := triangle(t)
	edges := g.Edges()
	want := []Edge{{0, 1, 0.5}, {0, 2, 0.75}, {1, 2, 0.25}}
	if !reflect.DeepEqual(edges, want) {
		t.Fatalf("Edges() = %v, want %v", edges, want)
	}
}

func TestBFSDepths(t *testing.T) {
	g := path(t, 5, 0.5)
	dist := g.HopDistances(0)
	want := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("HopDistances = %v, want %v", dist, want)
	}
}

func TestBFSEarlyStop(t *testing.T) {
	g := path(t, 10, 0.5)
	visited := 0
	g.BFS(0, func(u UserID, depth int) bool {
		visited++
		return depth < 2
	})
	if visited != 3 { // depths 0,1,2 visited; visit at depth 2 stops traversal
		t.Fatalf("visited %d vertices, want 3", visited)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(2, 3, 0.5)
	b.AddEdge(3, 4, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if labels[0] != labels[1] || labels[2] != labels[3] || labels[3] != labels[4] {
		t.Fatalf("bad labels: %v", labels)
	}
	if labels[5] == labels[0] || labels[5] == labels[2] {
		t.Fatalf("isolated vertex shares a component: %v", labels)
	}
	lc := g.LargestComponent()
	if !reflect.DeepEqual(lc, []UserID{2, 3, 4}) {
		t.Fatalf("LargestComponent = %v", lc)
	}
}

func TestMaxProductDistancesPath(t *testing.T) {
	g := path(t, 4, 0.5)
	prox := g.MaxProductDistances(0, 1.0, 1.0)
	want := []float64{1, 0.5, 0.25, 0.125}
	for i := range want {
		if math.Abs(prox[i]-want[i]) > 1e-12 {
			t.Fatalf("prox[%d] = %g, want %g", i, prox[i], want[i])
		}
	}
}

func TestMaxProductPrefersStrongIndirectPath(t *testing.T) {
	// 0-2 direct weight 0.3; 0-1-2 via weights 0.9*0.9 = 0.81 > 0.3.
	b := NewBuilder(3)
	b.AddEdge(0, 2, 0.3)
	b.AddEdge(0, 1, 0.9)
	b.AddEdge(1, 2, 0.9)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prox := g.MaxProductDistances(0, 1.0, 1.0)
	if math.Abs(prox[2]-0.81) > 1e-12 {
		t.Fatalf("prox[2] = %g, want 0.81 (indirect path)", prox[2])
	}
}

func TestMaxProductAlphaDamping(t *testing.T) {
	g := path(t, 3, 1.0)
	prox := g.MaxProductDistances(0, 0.5, 1.0)
	// hop damping: 1, 0.5, 0.25 despite unit edge weights
	want := []float64{1, 0.5, 0.25}
	for i := range want {
		if math.Abs(prox[i]-want[i]) > 1e-12 {
			t.Fatalf("prox[%d] = %g, want %g", i, prox[i], want[i])
		}
	}
}

func TestMaxProductUnreachable(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	prox := g.MaxProductDistances(0, 1.0, 1.0)
	if prox[2] != 0 {
		t.Fatalf("unreachable vertex has proximity %g", prox[2])
	}
}

func TestLocalClustering(t *testing.T) {
	g := triangle(t)
	for u := UserID(0); u < 3; u++ {
		if c := g.LocalClustering(u); c != 1 {
			t.Fatalf("triangle clustering(%d) = %g, want 1", u, c)
		}
	}
	p := path(t, 3, 0.5)
	if c := p.LocalClustering(1); c != 0 {
		t.Fatalf("path clustering(1) = %g, want 0", c)
	}
	if c := p.LocalClustering(0); c != 0 {
		t.Fatalf("degree-1 clustering = %g, want 0", c)
	}
}

func TestComputeStats(t *testing.T) {
	g := triangle(t)
	s := g.ComputeStats(0)
	if s.NumUsers != 3 || s.NumEdges != 3 {
		t.Fatalf("stats counts wrong: %+v", s)
	}
	if s.Components != 1 || s.LargestComponent != 3 {
		t.Fatalf("stats components wrong: %+v", s)
	}
	if s.MinDegree != 2 || s.MaxDegree != 2 || s.AvgDegree != 2 {
		t.Fatalf("stats degrees wrong: %+v", s)
	}
	if s.ClusteringSample != 1 {
		t.Fatalf("clustering = %g, want 1", s.ClusteringSample)
	}
}

func TestDegreePercentileUser(t *testing.T) {
	// star: vertex 0 has degree 4, leaves have degree 1.
	b := NewBuilder(5)
	for i := 1; i < 5; i++ {
		b.AddEdge(0, UserID(i), 0.5)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if u := g.DegreePercentileUser(100); u != 0 {
		t.Fatalf("p100 user = %d, want hub 0", u)
	}
	if u := g.DegreePercentileUser(0); u == 0 {
		t.Fatalf("p0 user = hub, want a leaf")
	}
	// Out-of-range percentiles clamp rather than panic.
	g.DegreePercentileUser(-5)
	g.DegreePercentileUser(500)
}

// randomGraph builds a connected-ish random graph for property tests.
func randomGraph(rng *rand.Rand, n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		// spanning tree for connectivity
		j := rng.Intn(i)
		b.AddEdge(UserID(i), UserID(j), 0.1+0.9*rng.Float64())
	}
	extra := n / 2
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(UserID(u), UserID(v), 0.1+0.9*rng.Float64())
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

func TestPropertyProximityBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n)
		src := UserID(rng.Intn(n))
		prox := g.MaxProductDistances(src, 1.0, 1.0)
		if prox[src] != 1.0 {
			return false
		}
		for u, p := range prox {
			if p < 0 || p > 1 {
				return false
			}
			if UserID(u) != src && p >= 1.0+1e-15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyProximityTriangleInequality(t *testing.T) {
	// For every edge (u,v): prox[v] >= prox[u]*w(u,v), i.e. the relaxation
	// is a fixed point.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := randomGraph(rng, n)
		src := UserID(rng.Intn(n))
		prox := g.MaxProductDistances(src, 1.0, 1.0)
		for _, e := range g.Edges() {
			if prox[e.V] < prox[e.U]*e.Weight-1e-12 {
				return false
			}
			if prox[e.U] < prox[e.V]*e.Weight-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyComponentsPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		b := NewBuilder(n)
		for e := 0; e < n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(UserID(u), UserID(v), 0.5)
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		labels, count := g.ConnectedComponents()
		// every label in range, every edge within one component
		for _, l := range labels {
			if l < 0 || l >= count {
				return false
			}
		}
		for _, e := range g.Edges() {
			if labels[e.U] != labels[e.V] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeMatchesBuild: folding batches of edges into a graph one
// Merge at a time gives, after every batch, the graph a Build over the
// union gives — edges declared twice or in either direction, weights
// that raise an existing edge and weights that do not, brand-new users,
// empty batches — and the graph a map of the largest weight per pair
// describes, at every one of pageShifts.
func TestMergeMatchesBuild(t *testing.T) {
	atPageSizes(t, func(rows int) {
		t.Run(fmt.Sprintf("rows=%d", rows), checkMergeMatchesBuild)
	})
}

func checkMergeMatchesBuild(t *testing.T) {
	pair := func(u, v UserID) [2]UserID { return [2]UserID{min(u, v), max(u, v)} }
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6)
		g, err := NewBuilder(n).Build()
		if err != nil {
			t.Fatal(err)
		}
		var union []Edge
		for round := 0; round < 5; round++ {
			n += rng.Intn(3)
			var delta []Edge
			for k, m := 0, rng.Intn(12); n >= 2 && k < m; k++ {
				e := Edge{U: UserID(rng.Intn(n)), V: UserID(rng.Intn(n)), Weight: float64(1+rng.Intn(4)) / 4}
				if len(union) > 0 && rng.Intn(3) == 0 { // re-declare a pair, maybe reversed
					old := union[rng.Intn(len(union))]
					e.U, e.V = old.V, old.U
				}
				if e.U != e.V {
					delta = append(delta, e)
				}
			}
			before := g
			if g, err = g.Merge(delta, n); err != nil {
				t.Fatalf("seed %d round %d: Merge: %v", seed, round, err)
			}
			if len(delta) == 0 && n == before.NumUsers() && g != before {
				t.Fatalf("seed %d round %d: empty delta built a new graph", seed, round)
			}
			union = append(union, delta...)
			b := NewBuilder(n)
			best := make(map[[2]UserID]float64)
			for _, e := range union {
				b.AddEdge(e.U, e.V, e.Weight)
				best[pair(e.U, e.V)] = max(best[pair(e.U, e.V)], e.Weight)
			}
			want, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("seed %d round %d: merged graph differs from Build over the union\n got %+v\nwant %+v", seed, round, g, want)
			}
			if g.NumUsers() != n || g.NumEdges() != len(best) {
				t.Fatalf("seed %d round %d: %d users, %d edges; want %d, %d", seed, round, g.NumUsers(), g.NumEdges(), n, len(best))
			}
			for u := UserID(0); int(u) < n; u++ {
				nbrs, _ := g.Neighbors(u)
				if !sort.SliceIsSorted(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] }) {
					t.Fatalf("seed %d round %d: neighbours of %d not sorted: %v", seed, round, u, nbrs)
				}
				for v := UserID(0); int(v) < n; v++ {
					if w, _ := g.EdgeWeight(u, v); w != best[pair(u, v)] {
						t.Fatalf("seed %d round %d: weight(%d,%d) = %g, want %g", seed, round, u, v, w, best[pair(u, v)])
					}
				}
			}
		}
	}
}

// mergeByEdgeList is the reference FuzzMergeMatchesEdgeList holds Merge
// to: expand the graph to its canonical edge list, merge the sorted
// delta into a second list, the larger weight winning, and build the
// graph anew.
func mergeByEdgeList(g *Graph, delta []Edge, numUsers int) (*Graph, error) {
	if numUsers < g.NumUsers() {
		return nil, fmt.Errorf("graph: %d users, fewer than the graph's %d", numUsers, g.NumUsers())
	}
	d, err := canonical(delta)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(d, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	canon := g.Edges()
	merged := make([]Edge, 0, len(canon)+len(d))
	for _, e := range d {
		for len(canon) > 0 && (canon[0].U < e.U || canon[0].U == e.U && canon[0].V < e.V) {
			merged, canon = append(merged, canon[0]), canon[1:]
		}
		if len(canon) > 0 && canon[0].U == e.U && canon[0].V == e.V {
			e.Weight, canon = max(e.Weight, canon[0].Weight), canon[1:]
		}
		if last := len(merged) - 1; last >= 0 && merged[last].U == e.U && merged[last].V == e.V {
			merged[last].Weight = max(merged[last].Weight, e.Weight)
			continue
		}
		merged = append(merged, e)
	}
	return FromSortedEdges(numUsers, append(merged, canon...))
}

// mergeBatches decodes a fuzz input into batches of edges: the first
// byte sizes the starting universe, then each three bytes are an edge
// (u, v, weight) over ids that may fall one past the universe and
// weights that may be 0, except that a weight byte of 0xFF closes the
// batch and grows the universe by u mod 3.
func mergeBatches(data []byte) (users int, batches [][]Edge, grow []int) {
	if len(data) == 0 {
		return 0, nil, nil
	}
	users, data = int(data[0]%8), data[1:]
	batches, grow = [][]Edge{nil}, []int{0}
	for ; len(data) >= 3; data = data[3:] {
		if data[2] == 0xFF {
			grow[len(grow)-1] = int(data[0] % 3)
			batches, grow = append(batches, nil), append(grow, 0)
			continue
		}
		last := len(batches) - 1
		batches[last] = append(batches[last], Edge{U: UserID(data[0] % 12), V: UserID(data[1] % 12), Weight: float64(data[2]%5) / 4})
	}
	return users, batches, grow
}

// FuzzMergeMatchesEdgeList: Merge, which rewrites the pages of the rows
// a batch touches, gives the very graph (pages, adjacency, weights and
// largest weight) the edge-list round trip gives, batch after batch and
// at every one of pageShifts, and rejects the batches it rejects.
func FuzzMergeMatchesEdgeList(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 1, 2, 4, 0, 0, 0xFF, 2, 3, 1, 0, 3, 2, 3, 0, 4})
	f.Add([]byte{0, 0, 0, 0xFF, 1, 0, 0xFF, 0, 1, 4, 1, 0, 2, 1, 0, 3})
	f.Add([]byte{5, 0, 1, 1, 1, 0, 3, 0, 1, 2, 4, 4, 4, 0, 9, 1})
	rng := rand.New(rand.NewSource(1))
	for range 20 {
		data := []byte{byte(rng.Intn(8))}
		for k := rng.Intn(40); k > 0; k-- {
			data = append(data, byte(rng.Intn(12)), byte(rng.Intn(12)), byte(1+rng.Intn(4)))
			if rng.Intn(8) == 0 {
				data = append(data, byte(rng.Intn(3)), 0, 0xFF)
			}
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		atPageSizes(t, func(rows int) {
			users, batches, grow := mergeBatches(data)
			g, err := NewBuilder(users).Build()
			if err != nil {
				t.Fatal(err)
			}
			for round, delta := range batches {
				users += grow[round]
				got, err := g.Merge(delta, users)
				want, wantErr := mergeByEdgeList(g, delta, users)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("pages of %d rows, round %d: Merge says %v, the edge-list merge %v", rows, round, err, wantErr)
				}
				if err != nil {
					users = g.NumUsers()
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("pages of %d rows, round %d: Merge gives\n%+v\nthe edge-list merge\n%+v", rows, round, got, want)
				}
				g = got
			}
		})
	})
}

// pageShifts are the pageShift the merge tests run at: pages of one,
// two and four rows, over which the tests' few users spread, and the
// size graphs are built with.
var pageShifts = []uint{0, 1, 2, pageShift}

// atPageSizes runs f with graphs built at each of pageShifts; f gets
// the rows a page holds.
func atPageSizes(t testing.TB, f func(rows int)) {
	t.Helper()
	defer func(shift uint) { pageShift = shift }(pageShift)
	for _, shift := range pageShifts {
		pageShift = shift
		f(1 << shift)
	}
}

// TestMergeSharesUntouchedPages: a merge rewrites the pages holding a
// row its delta touches and those growth lengthens or adds, shares
// every other page with its parent and leaves the parent as it was;
// OwnBytes counts the new page table and the rewritten pages.
func TestMergeSharesUntouchedPages(t *testing.T) {
	defer func(shift uint) { pageShift = shift }(pageShift)
	pageShift = 2
	g := path(t, 18, 0.5) // pages of rows 0-3, 4-7, 8-11, 12-15 and 16-17
	edges := g.Edges()
	header := int64(unsafe.Sizeof(page{}))
	// 5 pages; offsets 4·5+3, 34 adjacency entries of 4+8 bytes.
	if got, want := g.OwnBytes(nil), 5*header+4*23+12*34; got != want {
		t.Fatalf("built graph: OwnBytes(nil) %d, want %d", got, want)
	}
	m, err := g.Merge([]Edge{{U: 5, V: 9, Weight: 0.8}, {U: 7, V: 6, Weight: 0.9}}, 22)
	if err != nil {
		t.Fatal(err)
	}
	rewritten := map[int]bool{1: true, 2: true, 4: true, 5: true} // rows 5-7, 9; growth to 22 users
	if len(m.pages) != 6 {
		t.Fatalf("%d pages, want 6", len(m.pages))
	}
	for p := range m.pages {
		shared := p < len(g.pages) && &m.pages[p].offsets[0] == &g.pages[p].offsets[0]
		if shared == rewritten[p] {
			t.Errorf("page %d: shared %v, want %v", p, shared, !rewritten[p])
		}
	}
	if !reflect.DeepEqual(g.Edges(), edges) || g.NumUsers() != 18 {
		t.Fatal("Merge changed its parent")
	}
	// Pages 1 and 2 hold 9 entries each over 5 offsets, page 4 rows
	// 16-19 with 3 entries, page 5 rows 20-21 with none.
	if got, want := m.OwnBytes(g), 6*header+2*(4*5+12*9)+(4*5+12*3)+4*3; got != want {
		t.Fatalf("OwnBytes(parent) %d, want %d", got, want)
	}
	if got := m.OwnBytes(m); got != 0 {
		t.Fatalf("OwnBytes(itself) %d, want 0", got)
	}
}

func TestMergeRejectsBadDelta(t *testing.T) {
	g := triangle(t)
	for name, e := range map[string]Edge{
		"self-loop":       {U: 1, V: 1, Weight: 0.5},
		"out of range":    {U: 0, V: 7, Weight: 0.5},
		"negative weight": {U: 0, V: 1, Weight: -1}, // on an existing, heavier edge
		"weight above 1":  {U: 0, V: 1, Weight: 1.5},
		"NaN weight":      {U: 0, V: 1, Weight: math.NaN()},
		"NaN on new pair": {U: 0, V: 3, Weight: math.NaN()},
	} {
		for _, users := range []int{g.NumUsers(), g.NumUsers() + 1} {
			if _, err := g.Merge([]Edge{e}, users); err == nil {
				t.Errorf("%s: accepted at %d users", name, users)
			}
		}
	}
	if _, err := g.Merge(nil, g.NumUsers()-1); err == nil {
		t.Error("fewer users: accepted")
	}
}

// TestMaxWeight: every way of making a graph reports its largest weight —
// Build, a Merge that raises it, one that does not (a pair re-declared
// lower included), one that hands back the graph itself — and a graph
// without edges reports 0.
func TestMaxWeight(t *testing.T) {
	if w := new(Graph).MaxWeight(); w != 0 {
		t.Fatalf("zero Graph: MaxWeight %g, want 0", w)
	}
	empty, err := NewBuilder(3).Build()
	if err != nil {
		t.Fatal(err)
	}
	if w := empty.MaxWeight(); w != 0 {
		t.Fatalf("edgeless graph: MaxWeight %g, want 0", w)
	}
	g := triangle(t) // 0.5, 0.25, 0.75
	if w := g.MaxWeight(); w != 0.75 {
		t.Fatalf("Build: MaxWeight %g, want 0.75", w)
	}
	for _, step := range []struct {
		name  string
		delta []Edge
		users int
		want  float64
	}{
		{"not raised", []Edge{{U: 0, V: 1, Weight: 0.6}, {U: 2, V: 3, Weight: 0.4}}, 4, 0.75},
		{"raised", []Edge{{U: 3, V: 0, Weight: 0.9}}, 4, 0.9},
		{"the max re-declared lower", []Edge{{U: 0, V: 3, Weight: 0.1}}, 4, 0.9},
		{"raised to 1 by a new user", []Edge{{U: 4, V: 1, Weight: 1}}, 5, 1},
	} {
		next, err := g.Merge(step.delta, step.users)
		if err != nil {
			t.Fatal(err)
		}
		if w := next.MaxWeight(); w != step.want {
			t.Fatalf("Merge %s: MaxWeight %g, want %g", step.name, w, step.want)
		}
		g = next
	}
	same, err := g.Merge(nil, g.NumUsers())
	if err != nil {
		t.Fatal(err)
	}
	if same != g || same.MaxWeight() != 1 {
		t.Fatalf("empty Merge: got a new graph (%v) or MaxWeight %g, want g itself at 1", same != g, same.MaxWeight())
	}
}

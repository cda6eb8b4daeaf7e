// Package graph implements the weighted undirected social graph that
// underlies the social search engine. The graph is stored in compressed
// sparse row (CSR) form cut into pages: a page holds the rows of a fixed
// number of consecutive vertices (their offsets, neighbour ids and
// weights), and one page table points at the pages. A traversal reads a
// row as one contiguous slice, as from a flat CSR; a merge rewrites only
// the pages whose rows change and shares every other page with the
// graph it came from.
//
// Vertices are dense user identifiers in [0, NumUsers). Edge weights are
// friendship strengths in (0, 1]; a weight of 1 is a maximally strong tie.
// The package provides the traversals the proximity engine and the
// generators need: BFS, connected components, weighted (max-product)
// Dijkstra, degree statistics and clustering coefficients.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"unsafe"
)

// UserID is a dense vertex identifier in [0, NumUsers).
type UserID = int32

// Edge is a single undirected edge with its friendship weight.
type Edge struct {
	U, V   UserID
	Weight float64
}

// Builder accumulates edges before freezing them into an immutable Graph.
// Duplicate edges are merged keeping the maximum weight; self-loops are
// rejected at Build time.
type Builder struct {
	numUsers int
	edges    []Edge
}

// NewBuilder returns a Builder for a graph over numUsers vertices.
func NewBuilder(numUsers int) *Builder {
	return &Builder{numUsers: numUsers}
}

// AddEdge records an undirected edge (u, v) with the given weight.
// It may be called multiple times for the same pair; the maximum weight
// wins. Ordering of u and v does not matter.
func (b *Builder) AddEdge(u, v UserID, weight float64) {
	b.edges = append(b.edges, Edge{U: u, V: v, Weight: weight})
}

// Build validates and freezes the accumulated edges into a Graph.
func (b *Builder) Build() (*Graph, error) {
	d, err := canonical(b.edges)
	if err != nil {
		return nil, err
	}
	slices.SortFunc(d, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	merged := d[:0]
	for _, e := range d {
		if last := len(merged) - 1; last >= 0 && merged[last].U == e.U && merged[last].V == e.V {
			merged[last].Weight = max(merged[last].Weight, e.Weight)
			continue
		}
		merged = append(merged, e)
	}
	return FromSortedEdges(b.numUsers, merged)
}

// canonical returns a copy of edges with each one's ends ordered U < V,
// rejecting self-loops and weights outside (0, 1]; vertex ranges are
// left to the caller.
func canonical(edges []Edge) ([]Edge, error) {
	d := make([]Edge, len(edges))
	for i, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop on user %d", e.U)
		}
		if !(e.Weight > 0 && e.Weight <= 1) {
			return nil, fmt.Errorf("graph: edge (%d,%d) weight %g outside (0,1]", e.U, e.V, e.Weight)
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
		d[i] = e
	}
	return d, nil
}

// Merge returns a graph over numUsers vertices, no fewer than g has,
// that holds g's edges plus delta, the larger weight winning where a
// pair repeats. g is left untouched; with nothing to add Merge returns
// g itself. The new graph starts from a copy of g's page table and
// rewrites only the pages that hold a row delta touches, and those the
// growth to numUsers lengthens or adds; every other page stays g's. The
// cost is sorting delta plus one copy of the page table and of each
// rewritten page.
func (g *Graph) Merge(delta []Edge, numUsers int) (*Graph, error) {
	if numUsers < g.numUsers {
		return nil, fmt.Errorf("graph: %d users, fewer than the graph's %d", numUsers, g.numUsers)
	}
	if len(delta) == 0 && numUsers == g.numUsers {
		return g, nil
	}
	c, err := canonical(delta)
	if err != nil {
		return nil, err
	}
	// Both directions of every edge, by (row, neighbour), a pair declared
	// more than once keeping its largest weight.
	d := make([]Edge, 0, 2*len(c))
	maxWeight := g.maxWeight
	for _, e := range c {
		if e.U < 0 || int(e.V) >= numUsers {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, numUsers)
		}
		d = append(d, e, Edge{U: e.V, V: e.U, Weight: e.Weight})
		maxWeight = max(maxWeight, e.Weight)
	}
	slices.SortFunc(d, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	w := 0
	for _, e := range d {
		if w > 0 && d[w-1].U == e.U && d[w-1].V == e.V {
			d[w-1].Weight = max(d[w-1].Weight, e.Weight)
			continue
		}
		d[w] = e
		w++
	}
	d = d[:w]
	shift := g.shift
	if g.numUsers == 0 { // no pages to share: take the built page size
		shift = pageShift
	}
	n := &Graph{
		numUsers:  numUsers,
		shift:     shift,
		pages:     make([]page, (numUsers+1<<shift-1)>>shift),
		maxWeight: maxWeight,
	}
	copy(n.pages, g.pages)
	added := 0 // adjacency entries delta adds: two per new edge
	for a, b := 0, 0; a < len(d); a = b {
		p := int(d[a].U) >> shift
		for b < len(d) && int(d[b].U)>>shift == p {
			b++
		}
		var k int
		n.pages[p], k = g.mergePage(n, p, d[a:b])
		added += k
	}
	// Growth lengthens g's last page if it is short and adds pages past
	// it; those delta did not rewrite are g's rows padded with empty ones.
	for p := g.numUsers >> shift; p < len(n.pages); p++ {
		if len(n.pages[p].offsets) != n.pageLen(p)+1 {
			n.pages[p], _ = g.mergePage(n, p, nil)
		}
	}
	n.numEdges = g.numEdges + added/2
	return n, nil
}

// mergePage builds page p of n, which is g merged with a delta, from
// g's rows and d, the delta's entries for the page's rows: both
// directions, sorted by (U, V), each pair once. A row past g's vertices
// starts empty. It also reports how many entries d added that g's rows
// lacked.
func (g *Graph) mergePage(n *Graph, p int, d []Edge) (page, int) {
	lo := p << n.shift
	size := len(d)
	if p < len(g.pages) {
		size += len(g.pages[p].adj)
	}
	pg := page{
		offsets: make([]int32, n.pageLen(p)+1),
		adj:     make([]UserID, 0, size),
		weights: make([]float64, 0, size),
	}
	added := 0
	for r := 1; r < len(pg.offsets); r++ {
		u := UserID(lo + r - 1)
		var nbrs []UserID
		var wts []float64
		if int(u) < g.numUsers {
			nbrs, wts = g.Neighbors(u)
		}
		for ; len(d) > 0 && d[0].U == u; d = d[1:] {
			e := d[0]
			for len(nbrs) > 0 && nbrs[0] < e.V {
				pg.adj, pg.weights = append(pg.adj, nbrs[0]), append(pg.weights, wts[0])
				nbrs, wts = nbrs[1:], wts[1:]
			}
			if len(nbrs) > 0 && nbrs[0] == e.V {
				e.Weight = max(e.Weight, wts[0])
				nbrs, wts = nbrs[1:], wts[1:]
			} else {
				added++
			}
			pg.adj, pg.weights = append(pg.adj, e.V), append(pg.weights, e.Weight)
		}
		pg.adj, pg.weights = append(pg.adj, nbrs...), append(pg.weights, wts...)
		pg.offsets[r] = int32(len(pg.adj))
	}
	return pg, added
}

// FromSortedEdges builds a Graph directly from edges that are already
// canonical: each undirected edge reported exactly once with U < V,
// strictly sorted by (U, V). This is the flat load path for the on-disk
// format (internal/index), whose writer emits canonical edges — it
// lays the rows out in two linear passes with no deduplication map and
// no re-sort, all pages over one backing array per field. Per-vertex
// adjacency comes out sorted by construction: row u receives its
// smaller neighbours (from edges ending at u, which precede u's own run
// in the input order) before its larger ones (from u's own run), both
// ascending. Violations of canonical form are rejected, so a corrupt or
// hand-built input falls back to the Builder path cleanly.
func FromSortedEdges(numUsers int, edges []Edge) (*Graph, error) {
	n := numUsers
	if n < 0 {
		return nil, errors.New("graph: negative user count")
	}
	maxWeight := 0.0
	for i, e := range edges {
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		if e.U >= e.V {
			return nil, fmt.Errorf("graph: edge (%d,%d) not canonical (want U < V)", e.U, e.V)
		}
		if !(e.Weight > 0 && e.Weight <= 1) {
			return nil, fmt.Errorf("graph: edge (%d,%d) weight %g outside (0,1]", e.U, e.V, e.Weight)
		}
		if i > 0 {
			p := edges[i-1]
			if e.U < p.U || (e.U == p.U && e.V <= p.V) {
				return nil, fmt.Errorf("graph: edges not strictly sorted at (%d,%d)", e.U, e.V)
			}
		}
		maxWeight = max(maxWeight, e.Weight)
	}
	offsets := make([]int32, n+1)
	for _, e := range edges {
		offsets[e.U+1]++
		offsets[e.V+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	m2 := int(offsets[n])
	adj := make([]UserID, m2)
	wts := make([]float64, m2)
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, e := range edges {
		p := cursor[e.U]
		adj[p], wts[p] = e.V, e.Weight
		cursor[e.U]++
		p = cursor[e.V]
		adj[p], wts[p] = e.U, e.Weight
		cursor[e.V]++
	}
	// Cut the flat rows into pages: each page's offsets count from its
	// own first row, in one shared array of n+pages entries.
	g := &Graph{numUsers: n, shift: pageShift, numEdges: len(edges), maxWeight: maxWeight}
	g.pages = make([]page, (n+1<<g.shift-1)>>g.shift)
	rel := make([]int32, n+len(g.pages))
	for p := range g.pages {
		lo := p << g.shift
		hi := lo + g.pageLen(p)
		base, end := offsets[lo], offsets[hi]
		off := rel[: hi-lo+1 : hi-lo+1]
		rel = rel[hi-lo+1:]
		for r := range off {
			off[r] = offsets[lo+r] - base
		}
		g.pages[p] = page{offsets: off, adj: adj[base:end:end], weights: wts[base:end:end]}
	}
	return g, nil
}

// pageShift is the log2 of how many consecutive rows Build and
// FromSortedEdges put in one page: 16. A merge rewrites whole pages, 16
// rows for every row a delta touches, and the page table costs one page
// header per 16 rows. A power of two lets a row find its page by a
// shift: a division by the page size cost an expansion that reads every
// row 3–5% (2 vCPU Xeon VM). It is a variable only so that tests can cut
// graphs into pages of one to four rows; a graph keeps the page size it
// was built with.
var pageShift uint = 4

// Graph is an immutable weighted undirected graph: CSR rows cut into
// pages of consecutive vertices. The zero value is an empty graph.
type Graph struct {
	numUsers  int
	shift     uint   // a page holds 1<<shift rows; the last may hold fewer
	pages     []page // page p holds rows [p<<shift, min((p+1)<<shift, numUsers))
	numEdges  int
	maxWeight float64 // the largest weight; 0 without edges
}

// page is the CSR of one page's rows: row r of the page has the
// neighbours adj[offsets[r]:offsets[r+1]], ascending, and their
// weights. A page is never written after it is made, so graphs merged
// from one another share it.
type page struct {
	offsets []int32 // len rows+1, from 0
	adj     []UserID
	weights []float64
}

// pageLen is how many rows page p holds.
func (g *Graph) pageLen(p int) int { return min(1<<g.shift, g.numUsers-p<<g.shift) }

// locate returns the page that holds row u and the row's place in it.
func (g *Graph) locate(u UserID) (*page, int) {
	return &g.pages[uint32(u)>>g.shift], int(uint32(u) & (1<<g.shift - 1))
}

// OwnBytes reports the memory of g that it does not share with parent —
// after g = parent.Merge(...), what the merge allocated and g keeps:
// its page table and the pages it rewrote, in bytes of array elements
// (lengths, not capacities). A nil parent shares nothing.
func (g *Graph) OwnBytes(parent *Graph) int64 {
	if g == parent {
		return 0
	}
	if parent == nil {
		parent = new(Graph)
	}
	n := int64(len(g.pages)) * int64(unsafe.Sizeof(page{}))
	for p, pg := range g.pages {
		if p < len(parent.pages) && &pg.offsets[0] == &parent.pages[p].offsets[0] {
			continue
		}
		n += 4*int64(len(pg.offsets)+len(pg.adj)) + 8*int64(len(pg.weights))
	}
	return n
}

// MaxWeight reports the largest edge weight, 0 for a graph without
// edges: no path product grows by more than this factor per hop.
func (g *Graph) MaxWeight() float64 { return g.maxWeight }

// NumUsers reports the number of vertices.
func (g *Graph) NumUsers() int { return g.numUsers }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Degree reports the number of neighbours of u.
func (g *Graph) Degree(u UserID) int {
	pg, r := g.locate(u)
	return int(pg.offsets[r+1] - pg.offsets[r])
}

// Neighbors returns the sorted neighbour ids of u and their weights.
// The returned slices alias internal storage and must not be modified.
func (g *Graph) Neighbors(u UserID) ([]UserID, []float64) {
	pg, r := g.locate(u)
	lo, hi := pg.offsets[r], pg.offsets[r+1]
	return pg.adj[lo:hi], pg.weights[lo:hi]
}

// EdgeWeight reports the weight of edge (u, v), or 0 and false when the
// edge does not exist.
func (g *Graph) EdgeWeight(u, v UserID) (float64, bool) {
	nbrs, wts := g.Neighbors(u)
	i := sort.Search(len(nbrs), func(i int) bool { return nbrs[i] >= v })
	if i < len(nbrs) && nbrs[i] == v {
		return wts[i], true
	}
	return 0, false
}

// HasEdge reports whether edge (u, v) exists.
func (g *Graph) HasEdge(u, v UserID) bool {
	_, ok := g.EdgeWeight(u, v)
	return ok
}

// Edges returns all undirected edges, each reported once with U < V,
// sorted by (U, V). The slice is freshly allocated.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := 0; u < g.numUsers; u++ {
		nbrs, wts := g.Neighbors(UserID(u))
		for i, v := range nbrs {
			if UserID(u) < v {
				out = append(out, Edge{U: UserID(u), V: v, Weight: wts[i]})
			}
		}
	}
	return out
}

// BFS performs a breadth-first traversal from src, invoking visit for
// every reachable vertex with its hop distance (src has distance 0).
// Traversal stops early if visit returns false.
func (g *Graph) BFS(src UserID, visit func(u UserID, depth int) bool) {
	if g.numUsers == 0 {
		return
	}
	seen := make([]bool, g.numUsers)
	queue := []UserID{src}
	seen[src] = true
	depth := 0
	for len(queue) > 0 {
		var next []UserID
		for _, u := range queue {
			if !visit(u, depth) {
				return
			}
			nbrs, _ := g.Neighbors(u)
			for _, v := range nbrs {
				if !seen[v] {
					seen[v] = true
					next = append(next, v)
				}
			}
		}
		queue = next
		depth++
	}
}

// HopDistances returns the hop distance from src to every vertex, with -1
// for unreachable vertices.
func (g *Graph) HopDistances(src UserID) []int {
	dist := make([]int, g.numUsers)
	for i := range dist {
		dist[i] = -1
	}
	g.BFS(src, func(u UserID, depth int) bool {
		dist[u] = depth
		return true
	})
	return dist
}

// ConnectedComponents labels every vertex with a component id in
// [0, numComponents) and returns the labels plus the component count.
// Component ids are assigned in order of the smallest vertex they contain.
func (g *Graph) ConnectedComponents() (labels []int, count int) {
	labels = make([]int, g.numUsers)
	for i := range labels {
		labels[i] = -1
	}
	for u := 0; u < g.numUsers; u++ {
		if labels[u] != -1 {
			continue
		}
		g.BFS(UserID(u), func(v UserID, _ int) bool {
			labels[v] = count
			return true
		})
		count++
	}
	return labels, count
}

// LargestComponent returns the vertices of the largest connected
// component, sorted ascending.
func (g *Graph) LargestComponent() []UserID {
	labels, count := g.ConnectedComponents()
	if count == 0 {
		return nil
	}
	sizes := make([]int, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := 0
	for c := 1; c < count; c++ {
		if sizes[c] > sizes[best] {
			best = c
		}
	}
	out := make([]UserID, 0, sizes[best])
	for u, l := range labels {
		if l == best {
			out = append(out, UserID(u))
		}
	}
	return out
}

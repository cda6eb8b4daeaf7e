// Package graph implements the weighted undirected social graph that
// underlies the social search engine. The graph is stored in compressed
// sparse row (CSR) form for cache-friendly traversal: all adjacency lists
// live in two flat arrays indexed by a per-vertex offset table.
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

// NumEdgesAdded reports how many AddEdge calls were recorded (before
// dedup).
func (b *Builder) NumEdgesAdded() int { return len(b.edges) }

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
		if e.Weight <= 0 || e.Weight > 1 {
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
// g itself. The new CSR is g's patched in one pass: the rows delta
// touches are merged with delta's sorted entries for them, and every
// stretch of rows between them is copied whole with its offsets
// shifted. The cost is sorting delta plus one copy of the CSR.
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
	w, added := 0, 0
	for _, e := range d {
		if w > 0 && d[w-1].U == e.U && d[w-1].V == e.V {
			d[w-1].Weight = max(d[w-1].Weight, e.Weight)
			continue
		}
		d[w] = e
		w++
		if _, ok := g.edgeAt(e.U, e.V); !ok {
			added++
		}
	}
	d = d[:w]
	n := &Graph{
		numUsers:  numUsers,
		offsets:   make([]int32, numUsers+1),
		adj:       make([]UserID, 0, len(g.adj)+added),
		weights:   make([]float64, 0, len(g.adj)+added),
		maxWeight: maxWeight,
	}
	next := UserID(0) // first row not written yet
	copyRows := func(to UserID) {
		lo, hi := g.rowStart(next), g.rowStart(to)
		shift := int32(len(n.adj)) - lo
		for u := next; u < to; u++ {
			n.offsets[u] = g.rowStart(u) + shift
		}
		n.adj = append(n.adj, g.adj[lo:hi]...)
		n.weights = append(n.weights, g.weights[lo:hi]...)
		next = to
	}
	for a, b := 0, 0; a < len(d); a = b {
		u := d[a].U
		for b < len(d) && d[b].U == u {
			b++
		}
		copyRows(u)
		n.offsets[u] = int32(len(n.adj))
		var nbrs []UserID
		var wts []float64
		if int(u) < g.numUsers {
			nbrs, wts = g.Neighbors(u)
		}
		for _, e := range d[a:b] {
			for len(nbrs) > 0 && nbrs[0] < e.V {
				n.adj, n.weights = append(n.adj, nbrs[0]), append(n.weights, wts[0])
				nbrs, wts = nbrs[1:], wts[1:]
			}
			if len(nbrs) > 0 && nbrs[0] == e.V {
				e.Weight = max(e.Weight, wts[0])
				nbrs, wts = nbrs[1:], wts[1:]
			}
			n.adj, n.weights = append(n.adj, e.V), append(n.weights, e.Weight)
		}
		n.adj, n.weights = append(n.adj, nbrs...), append(n.weights, wts...)
		next = u + 1
	}
	copyRows(UserID(numUsers))
	n.offsets[numUsers] = int32(len(n.adj))
	return n, nil
}

// rowStart is where row u starts in g's adjacency; a row past g's
// vertices is empty and starts at the end.
func (g *Graph) rowStart(u UserID) int32 {
	if int(u) >= g.numUsers {
		return int32(len(g.adj))
	}
	return g.offsets[u]
}

// edgeAt is EdgeWeight for a u that may lie past g's vertices.
func (g *Graph) edgeAt(u, v UserID) (float64, bool) {
	if int(u) >= g.numUsers {
		return 0, false
	}
	return g.EdgeWeight(u, v)
}

// FromSortedEdges builds a Graph directly from edges that are already
// canonical: each undirected edge reported exactly once with U < V,
// strictly sorted by (U, V). This is the flat load path for the on-disk
// format (internal/index), whose writer emits canonical edges — it
// constructs the CSR arrays in two linear passes with no deduplication
// map and no re-sort. Per-vertex adjacency comes
// out sorted by construction: row u receives its smaller neighbours
// (from edges ending at u, which precede u's own run in the input
// order) before its larger ones (from u's own run), both ascending.
// Violations of canonical form are rejected, so a corrupt or hand-built
// input falls back to the Builder path cleanly.
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
		if e.Weight <= 0 || e.Weight > 1 {
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
	return &Graph{numUsers: n, offsets: offsets, adj: adj, weights: wts, maxWeight: maxWeight}, nil
}

// Graph is an immutable weighted undirected graph in CSR form.
// The zero value is an empty graph.
type Graph struct {
	numUsers  int
	offsets   []int32 // len numUsers+1
	adj       []UserID
	weights   []float64
	maxWeight float64 // the largest of weights; 0 without edges
}

// MaxWeight reports the largest edge weight, 0 for a graph without
// edges: no path product grows by more than this factor per hop.
func (g *Graph) MaxWeight() float64 { return g.maxWeight }

// CSR exposes the flat adjacency arrays: offsets (len NumUsers+1) into
// adj/weights. The slices alias internal storage and must not be
// modified; they are the zero-copy export for paged/on-disk layouts.
func (g *Graph) CSR() (offsets []int32, adj []UserID, weights []float64) {
	return g.offsets, g.adj, g.weights
}

// NumUsers reports the number of vertices.
func (g *Graph) NumUsers() int { return g.numUsers }

// NumEdges reports the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.adj) / 2 }

// Degree reports the number of neighbours of u.
func (g *Graph) Degree(u UserID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the sorted neighbour ids of u and their weights.
// The returned slices alias internal storage and must not be modified.
func (g *Graph) Neighbors(u UserID) ([]UserID, []float64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.adj[lo:hi], g.weights[lo:hi]
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

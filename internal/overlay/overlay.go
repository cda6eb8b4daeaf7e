// Package overlay adds dynamic updates on top of the immutable base
// structures: new tagging actions and new/strengthened friendships
// accumulate in a pending delta, and a compaction step merges the
// sorted delta into the current immutable snapshot, producing the next
// one that queries see. This is the "handling evolving networks"
// extension the evaluation's future-work discussion calls for.
//
// Concurrency: an Overlay serializes mutations with a mutex and serves
// reads from immutable snapshots, so readers never block writers longer
// than a pointer swap. Query execution goes through Snapshot(), which
// returns a consistent (graph, store) pair.
package overlay

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/tagstore"
)

// Overlay is a mutable view over an immutable base dataset.
type Overlay struct {
	mu sync.Mutex

	// pending deltas since the last compaction
	pendingEdges   []graph.Edge
	pendingTriples []tagstore.Triple

	// current snapshot (base + compacted deltas)
	snapGraph *graph.Graph
	snapStore *tagstore.Store

	// universe growth
	numUsers, numItems, numTags int

	compactions int
}

// New wraps a base dataset. The base structures are never modified.
func New(g *graph.Graph, s *tagstore.Store) (*Overlay, error) {
	if g == nil || s == nil {
		return nil, fmt.Errorf("overlay: nil base graph or store")
	}
	if g.NumUsers() != s.NumUsers() {
		return nil, fmt.Errorf("overlay: graph has %d users, store has %d", g.NumUsers(), s.NumUsers())
	}
	return &Overlay{
		snapGraph: g,
		snapStore: s,
		numUsers:  g.NumUsers(),
		numItems:  s.NumItems(),
		numTags:   s.NumTags(),
	}, nil
}

// Snapshot returns the current consistent (graph, store) pair. Pending
// (uncompacted) mutations are not yet visible; call Compact to fold
// them in. The returned structures are immutable and safe to query
// concurrently.
func (o *Overlay) Snapshot() (*graph.Graph, *tagstore.Store) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.snapGraph, o.snapStore
}

// Pending reports how many edge and triple mutations await compaction.
func (o *Overlay) Pending() (edges, triples int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return len(o.pendingEdges), len(o.pendingTriples)
}

// Compactions reports how many compactions have run.
func (o *Overlay) Compactions() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.compactions
}

// PendingFriendships returns the distinct friendships awaiting
// compaction, each once with U < V whatever order and however often it
// was declared, sorted. Weights are not reported: Compact keeps the
// largest of the declared and the held one, which the compacted graph
// answers.
func (o *Overlay) PendingFriendships() []graph.Edge {
	o.mu.Lock()
	defer o.mu.Unlock()
	edges := make([]graph.Edge, len(o.pendingEdges))
	for i, e := range o.pendingEdges {
		edges[i] = graph.Edge{U: min(e.U, e.V), V: max(e.U, e.V)}
	}
	slices.SortFunc(edges, func(a, b graph.Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	return slices.Compact(edges)
}

// AddUser grows the user universe by one and returns the new id.
func (o *Overlay) AddUser() graph.UserID {
	o.mu.Lock()
	defer o.mu.Unlock()
	id := graph.UserID(o.numUsers)
	o.numUsers++
	return id
}

// AddItem grows the item universe by one and returns the new id.
func (o *Overlay) AddItem() tagstore.ItemID {
	o.mu.Lock()
	defer o.mu.Unlock()
	id := tagstore.ItemID(o.numItems)
	o.numItems++
	return id
}

// AddTag grows the tag universe by one and returns the new id.
func (o *Overlay) AddTag() tagstore.TagID {
	o.mu.Lock()
	defer o.mu.Unlock()
	id := tagstore.TagID(o.numTags)
	o.numTags++
	return id
}

// Befriend records a (new or strengthened) friendship. Weight must lie
// in (0, 1]; the maximum of duplicate declarations wins at compaction.
func (o *Overlay) Befriend(u, v graph.UserID, weight float64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if u < 0 || int(u) >= o.numUsers || v < 0 || int(v) >= o.numUsers {
		return fmt.Errorf("overlay: user pair (%d,%d) outside [0,%d)", u, v, o.numUsers)
	}
	if u == v {
		return fmt.Errorf("overlay: self-friendship for user %d", u)
	}
	if !(weight > 0 && weight <= 1) {
		return fmt.Errorf("overlay: weight %g outside (0,1]", weight)
	}
	o.pendingEdges = append(o.pendingEdges, graph.Edge{U: u, V: v, Weight: weight})
	return nil
}

// Tag records a tagging action (count 1).
func (o *Overlay) Tag(user graph.UserID, item tagstore.ItemID, tag tagstore.TagID) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if user < 0 || int(user) >= o.numUsers {
		return fmt.Errorf("overlay: user %d outside [0,%d)", user, o.numUsers)
	}
	if item < 0 || int(item) >= o.numItems {
		return fmt.Errorf("overlay: item %d outside [0,%d)", item, o.numItems)
	}
	if tag < 0 || int(tag) >= o.numTags {
		return fmt.Errorf("overlay: tag %d outside [0,%d)", tag, o.numTags)
	}
	o.pendingTriples = append(o.pendingTriples, tagstore.Triple{
		User: int32(user), Item: item, Tag: tag, Count: 1,
	})
	return nil
}

// Compact folds all pending mutations (and any universe growth) into
// fresh immutable snapshot structures. It is idempotent when nothing is
// pending. The pending batch is sorted and merged into the current
// snapshot (graph.Graph.Merge, tagstore.Store.Merge): the cost is
// O(delta·log delta), for friendships the graph's page table and the
// pages of rows the batch touches, and for tags the store's blocks the
// batch touches, the global lists of the tags it mentions and the
// tables that point at them — not the tagging relation itself. A batch without friendships keeps
// the graph and one without tags keeps the store, unless it grew the
// universe (a Befriend that brought a new user): then the store is a
// new one that shares every block and list.
func (o *Overlay) Compact() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	g, err := o.snapGraph.Merge(o.pendingEdges, o.numUsers)
	if err != nil {
		return fmt.Errorf("overlay: compacting graph: %w", err)
	}
	s, err := o.snapStore.Merge(o.pendingTriples, o.numUsers, o.numItems, o.numTags)
	if err != nil {
		return fmt.Errorf("overlay: compacting store: %w", err)
	}
	if g == o.snapGraph && s == o.snapStore {
		return nil
	}
	o.snapGraph = g
	o.snapStore = s
	o.pendingEdges = o.pendingEdges[:0]
	o.pendingTriples = o.pendingTriples[:0]
	o.compactions++
	return nil
}

package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/proximity"
)

// NeighborhoodIndex materializes, for every user, the L closest users by
// social proximity together with the residual frontier bound at
// truncation. SocialMerge can then consume the precomputed list instead
// of expanding the graph at query time (Options.UseNeighborhoods) —
// trading index space and build time for per-query latency, the Fig 10
// ablation. Queries remain certified-exact whenever the algorithm
// terminates before the materialized horizon; beyond it, the residual
// bound either still certifies the answer or the result is flagged
// approximate.
type NeighborhoodIndex struct {
	lists    [][]proximity.Entry
	residual []float64
}

// BuildNeighborhoods materializes the top-L proximity entries per user.
// L must be ≥ 1; the seeker itself occupies the first slot of each list.
func BuildNeighborhoods(g *graph.Graph, l int, params proximity.Params) (*NeighborhoodIndex, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if l < 1 {
		return nil, fmt.Errorf("core: neighbourhood size %d must be >= 1", l)
	}
	n := g.NumUsers()
	idx := &NeighborhoodIndex{
		lists:    make([][]proximity.Entry, n),
		residual: make([]float64, n),
	}
	for u := 0; u < n; u++ {
		it, err := proximity.NewIterator(g, graph.UserID(u), params)
		if err != nil {
			return nil, err
		}
		list := make([]proximity.Entry, 0, l)
		for len(list) < l {
			e, ok := it.Next()
			if !ok {
				break
			}
			list = append(list, e)
		}
		idx.lists[u] = list
		idx.residual[u] = it.PeekBound()
	}
	return idx, nil
}

// Horizon returns the materialized list of seeker s (aliases internal
// storage) and the residual proximity bound beyond it.
func (idx *NeighborhoodIndex) Horizon(s graph.UserID) ([]proximity.Entry, float64) {
	return idx.lists[s], idx.residual[s]
}

// MemoryBytes estimates the resident size of the index (for Table 2).
func (idx *NeighborhoodIndex) MemoryBytes() int {
	bytes := len(idx.residual) * 8
	for _, l := range idx.lists {
		bytes += len(l) * 16 // UserID + Hops + Prox
	}
	return bytes
}

func (idx *NeighborhoodIndex) source(s graph.UserID) userSource {
	return &materializedSource{list: idx.lists[s], residual: idx.residual[s]}
}

type materializedSource struct {
	list     []proximity.Entry
	residual float64
	pos      int
}

func (m *materializedSource) Next() (proximity.Entry, bool) {
	if m.pos >= len(m.list) {
		return proximity.Entry{}, false
	}
	e := m.list[m.pos]
	m.pos++
	return e, true
}

func (m *materializedSource) Bound() float64 {
	if m.pos >= len(m.list) {
		return m.residual
	}
	return m.list[m.pos].Prox
}

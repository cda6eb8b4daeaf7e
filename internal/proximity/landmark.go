package proximity

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// LandmarkIndex precomputes max-product proximities from a small set of
// landmark vertices. Because the max-product measure satisfies the
// multiplicative triangle inequality
//
//	σ(s, v) ≥ σ(s, L) · σ(L, v)        (path through L)
//	σ(s, v) ≤ min_L σ(s, L) / σ(L, v)  — NOT valid in general,
//
// only the *lower* bound is sound for max-product, so the index exposes
// LowerBound. The engine's landmark-pruned approximate variant uses an
// *upper-bound heuristic* UpperBoundHeuristic (min over landmarks of
// σ(L,v) scaled by the best σ(s,L)); it may prune users that would have
// contributed, which is exactly why that variant is approximate and its
// quality is measured in Fig 10.
type LandmarkIndex struct {
	landmarks []graph.UserID
	// prox[l][v] = σ(landmark_l, v)
	prox [][]float64
}

// BuildLandmarks selects count landmarks by descending degree (the
// standard heuristic: hubs cover many shortest paths) and runs one batch
// proximity computation per landmark.
func BuildLandmarks(g *graph.Graph, count int, params Params) (*LandmarkIndex, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	n := g.NumUsers()
	if count <= 0 {
		return nil, fmt.Errorf("proximity: landmark count %d must be positive", count)
	}
	if count > n {
		count = n
	}
	type du struct {
		d int
		u graph.UserID
	}
	all := make([]du, n)
	for u := 0; u < n; u++ {
		all[u] = du{g.Degree(graph.UserID(u)), graph.UserID(u)}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].u < all[j].u
	})
	idx := &LandmarkIndex{}
	for i := 0; i < count; i++ {
		l := all[i].u
		idx.landmarks = append(idx.landmarks, l)
		idx.prox = append(idx.prox, g.MaxProductDistances(l, params.Alpha, params.SelfWeight))
	}
	return idx, nil
}

// Landmarks returns the selected landmark vertices.
func (idx *LandmarkIndex) Landmarks() []graph.UserID { return idx.landmarks }

// NumLandmarks reports how many landmarks the index holds.
func (idx *LandmarkIndex) NumLandmarks() int { return len(idx.landmarks) }

// LowerBound returns a sound lower bound on σ(s, v): the best landmark
// relay path max_L σ(s,L)·σ(L,v).
func (idx *LandmarkIndex) LowerBound(s, v graph.UserID) float64 {
	var best float64
	for l := range idx.landmarks {
		if p := idx.prox[l][s] * idx.prox[l][v]; p > best {
			best = p
		}
	}
	return best
}

// UpperBoundHeuristic returns a heuristic (unsound) upper estimate of
// σ(s, v): min over landmarks of σ(L,v) when σ(s,L) is high, otherwise 1.
// The approximate engine prunes users whose estimate falls below its
// pruning threshold; benchall's fig10 table quantifies the quality cost.
func (idx *LandmarkIndex) UpperBoundHeuristic(s, v graph.UserID) float64 {
	est := 1.0
	for l := range idx.landmarks {
		sl := idx.prox[l][s]
		lv := idx.prox[l][v]
		if sl <= 0 {
			continue
		}
		// If the seeker is close to L, v can't be much closer to the
		// seeker than it is to L (heuristically, within factor 1/sl).
		cand := lv / sl
		if cand > 1 {
			cand = 1
		}
		if cand < est {
			est = cand
		}
	}
	return est
}

// MemoryBytes estimates the resident size of the index (for Table 2).
func (idx *LandmarkIndex) MemoryBytes() int {
	bytes := len(idx.landmarks) * 4
	for _, row := range idx.prox {
		bytes += len(row) * 8
	}
	return bytes
}

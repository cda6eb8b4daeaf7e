package qcache

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/proximity"
)

// scanWorld is what the invalidation scripts run over: disjoint lines of
// 1 to 3,000 users whose edges weigh 1 except every 32nd, which weighs
// 0.5, under no damping and a floor of 2^-60 — so every proximity is an
// exact power of two, many tie, and the floor cuts the longest line's
// horizons from some seekers and not from others. A pool of horizons
// over them sits beside what an expansion of the same graph gives
// without going through core: each member's proximity.
type scanWorld struct {
	absent int // ids below this are in the graph but in no horizon
	users  int // ids at or past this are in no graph
	params proximity.Params
	pool   []*core.SeekerHorizon
	sigma  []map[graph.UserID]float64
}

var (
	scanWorldOnce sync.Once
	theScanWorld  scanWorld
)

func loadScanWorld(t testing.TB) *scanWorld {
	scanWorldOnce.Do(func() {
		w := &theScanWorld
		w.params = proximity.Params{Alpha: 1, SelfWeight: 1, MinSigma: math.Ldexp(1, -60)}
		sizes := []int{1200, 1, 2, 9, 60, 500, 3000} // no seeker comes from the first line
		w.absent = sizes[0]
		starts := make([]int, len(sizes))
		for i, size := range sizes {
			starts[i] = w.users
			w.users += size
		}
		e := weightedLinesEngine(t, sizes, func(u int) float64 {
			if u%32 == 31 {
				return 0.5
			}
			return 1
		}, core.Config{Proximity: w.params, Beta: 1})
		rng := rand.New(rand.NewSource(20))
		for k := 0; k < 48; k++ {
			comp := 1 + k%(len(sizes)-1)
			seeker := graph.UserID(starts[comp] + rng.Intn(sizes[comp]))
			h, err := e.MaterializeHorizon(seeker, 0)
			if err != nil {
				t.Fatal(err)
			}
			it, err := proximity.NewIterator(e.Graph(), seeker, w.params)
			if err != nil {
				t.Fatal(err)
			}
			sigma := make(map[graph.UserID]float64)
			for entry, ok := it.Next(); ok; entry, ok = it.Next() {
				sigma[entry.User] = entry.Prox
			}
			if len(sigma) != h.Size() {
				t.Fatalf("horizon %d: %d users materialized, %d expanded", k, h.Size(), len(sigma))
			}
			w.pool = append(w.pool, h)
			w.sigma = append(w.sigma, sigma)
		}
	})
	if len(theScanWorld.pool) == 0 {
		t.Fatal("scan world failed to build")
	}
	return &theScanWorld
}

// affects is the invalidation rule from its definition: a horizon is
// affected by an edge (u, v) of weight w, either way round, with u a
// member, c = σ_u·w·α ≥ MinSigma and v either no member or at σ_v ≤ c.
func (w *scanWorld) affects(horizon int, edges []graph.Edge) bool {
	sigma := w.sigma[horizon]
	raises := func(from, to graph.UserID, weight float64) bool {
		sf, ok := sigma[from]
		if !ok {
			return false
		}
		c := sf * weight * w.params.Alpha
		st, member := sigma[to]
		return c >= w.params.MinSigma && (!member || c >= st)
	}
	for _, e := range edges {
		if raises(e.U, e.V, e.Weight) || raises(e.V, e.U, e.Weight) {
			return true
		}
	}
	return false
}

// modelEntry is one resident entry of the reference cache.
type modelEntry struct {
	seeker  graph.UserID
	gen     uint64
	horizon int // index into the world's pool
}

// scanModel is the brute-force reference: a slice in LRU order (hottest
// first) and the rule scanWorld.affects.
type scanModel struct {
	capacity   int
	gen, floor uint64
	lru        []modelEntry
	counters   metrics.CacheSnapshot
}

func (m *scanModel) find(seeker graph.UserID) int {
	return slices.IndexFunc(m.lru, func(e modelEntry) bool { return e.seeker == seeker })
}

func (m *scanModel) put(seeker graph.UserID, gen uint64, horizon int) bool {
	if gen != m.gen {
		return false
	}
	if i := m.find(seeker); i >= 0 {
		m.lru = slices.Delete(m.lru, i, i+1)
	}
	m.lru = slices.Insert(m.lru, 0, modelEntry{seeker, gen, horizon})
	if len(m.lru) > m.capacity {
		m.lru = m.lru[:m.capacity]
		m.counters.Evictions++
	}
	return true
}

func (m *scanModel) lookup(seeker graph.UserID, gen uint64) (int, bool) {
	i := m.find(seeker)
	if gen != m.gen || i < 0 {
		m.counters.Misses++
		return 0, false
	}
	e := m.lru[i]
	m.lru = slices.Delete(m.lru, i, i+1)
	if e.gen < m.floor {
		m.counters.Invalidations++
		m.counters.Misses++
		return 0, false
	}
	m.lru = slices.Insert(m.lru, 0, e)
	m.counters.Hits++
	return e.horizon, true
}

func (m *scanModel) invalidateEdges(w *scanWorld, edges []graph.Edge) int {
	m.gen++
	before := len(m.lru)
	m.lru = slices.DeleteFunc(m.lru, func(e modelEntry) bool { return w.affects(e.horizon, edges) })
	m.counters.Invalidations += int64(before - len(m.lru))
	return before - len(m.lru)
}

// drawWeight picks an edge's weight: 1, 0.5, a uniform draw in (0, 1],
// or a tie. The tie is taken in the horizon of a resident entry (any
// pooled one when none is): with both endpoints members, the weight
// that carries the closer one's σ exactly onto the other's; with one,
// the weight that carries its σ exactly onto the floor, or half that,
// just under it. Proximities here are powers of two, so the quotients
// are exact.
func (m *scanModel) drawWeight(w *scanWorld, rng *rand.Rand, u, v graph.UserID) float64 {
	switch rng.Intn(4) {
	case 0:
		return 1
	case 1:
		return 0.5
	case 2:
		return 1 - rng.Float64()
	}
	k := rng.Intn(len(w.pool))
	if len(m.lru) > 0 {
		k = m.lru[rng.Intn(len(m.lru))].horizon
	}
	su, uIn := w.sigma[k][u]
	sv, vIn := w.sigma[k][v]
	if uIn && vIn {
		return min(su, sv) / max(su, sv)
	}
	if !uIn && !vIn {
		return 1
	}
	onto := w.params.MinSigma / max(su, sv) // the one absent reads 0
	if rng.Intn(2) == 0 {
		onto /= 2
	}
	return onto
}

const (
	scanRecord   = 5  // bytes per script record: op, a, b, c, d
	scanSeekers  = 12 // seeker ids the script uses: twice the capacity, so Puts refresh and evict
	scanCapacity = 6
)

// checkScanScript runs one script against a Cache and the model side by
// side. A record is five bytes (op, a, b, c, d); op mod 10 picks
//
//	0–2 Put(a mod 12, pool[b]) under the current generation — a refresh
//	    when the seeker is resident, an eviction when the cache is full
//	3   the same Put under a superseded generation (refused)
//	4   InvalidateEdge(ab, cd): two 16-bit ids, reaching past the graph,
//	    at weight 1
//	5   InvalidateEdges of 1, 2, 3, 8, 16, 100 or 256 edges (by a) drawn
//	    from a generator seeded by b, c, d: every fifth a self-pair, every
//	    seventh a repeat of the one before, every other one joining
//	    neighbours on a line; weights from drawWeight. When d is odd
//	    every id but one is an id no horizon holds, below or above the
//	    ones they do, so whether anything drops hangs on one endpoint —
//	    often the lowest or the highest of the batch
//	6   Invalidate
//	7–9 Lookup(a mod 12) — under a superseded generation when b mod 4 = 0
//
// and after every record the returned value, the generation, the
// survivors in LRU order and the counters must agree; at the end every
// survivor must serve the horizon the model holds for it.
func checkScanScript(t *testing.T, data []byte) {
	t.Helper()
	w := loadScanWorld(t)
	c, err := New(scanCapacity)
	if err != nil {
		t.Fatal(err)
	}
	m := &scanModel{capacity: scanCapacity}
	span := w.users + w.users/8
	for step := 0; len(data) >= scanRecord; step, data = step+1, data[scanRecord:] {
		op, a, b := data[0]%10, int(data[1]), int(data[2])
		ab, cd := int(data[1])<<8|int(data[2]), int(data[3])<<8|int(data[4])
		seeker := graph.UserID(a % scanSeekers)
		var got, want any
		switch op {
		case 0, 1, 2, 3:
			gen := c.Generation()
			if op == 3 {
				gen++
			}
			got, want = c.Put(seeker, gen, w.pool[b%len(w.pool)]), m.put(seeker, gen, b%len(w.pool))
		case 4:
			u, v := graph.UserID(ab%span), graph.UserID(cd%span)
			got, want = c.InvalidateEdge(u, v), m.invalidateEdges(w, []graph.Edge{{U: u, V: v, Weight: 1}})
		case 5:
			edges := make([]graph.Edge, []int{1, 2, 3, 8, 16, 100, 256}[a%7])
			rng := rand.New(rand.NewSource(int64(b)<<16 | int64(cd)))
			draw := func() graph.UserID { return graph.UserID(rng.Intn(span)) }
			if cd%2 == 1 {
				side := rng.Intn(3) // absent ids from below, from above, from both
				draw = func() graph.UserID {
					if side == 0 || (side == 2 && rng.Intn(2) == 0) {
						return graph.UserID(rng.Intn(w.absent))
					}
					return graph.UserID(w.users + rng.Intn(span-w.users))
				}
			}
			for i := range edges {
				switch {
				case i%7 == 6:
					edges[i] = edges[i-1]
				case i%5 == 4:
					u := draw()
					edges[i] = graph.Edge{U: u, V: u}
				case i%2 == 0:
					u := draw()
					edges[i] = graph.Edge{U: u, V: max(0, u+graph.UserID(rng.Intn(7)-3))}
				default:
					edges[i] = graph.Edge{U: draw(), V: draw()}
				}
				edges[i].Weight = m.drawWeight(w, rng, edges[i].U, edges[i].V)
			}
			if cd%2 == 1 {
				e := &edges[rng.Intn(len(edges))]
				if rng.Intn(2) == 0 {
					e.U = draw()
				}
				e.V = graph.UserID(rng.Intn(span))
				e.Weight = m.drawWeight(w, rng, e.U, e.V)
			}
			got, want = c.InvalidateEdges(edges), m.invalidateEdges(w, edges)
		case 6:
			c.Invalidate()
			m.gen++
			m.floor = m.gen
		case 7, 8, 9:
			gen := c.Generation()
			if b%4 == 0 {
				gen--
			}
			h, hit := c.Lookup(seeker, gen, 0)
			i, mhit := m.lookup(seeker, gen)
			got, want = hit, mhit
			if hit && mhit && h != w.pool[i] {
				t.Fatalf("step %d: Lookup(%d) served another horizon than the model's pool[%d]", step, seeker, i)
			}
		}
		if got != want {
			t.Fatalf("step %d (op %d): cache returned %v, model %v", step, op, got, want)
		}
		if c.Generation() != m.gen {
			t.Fatalf("step %d (op %d): generation %d, model %d", step, op, c.Generation(), m.gen)
		}
		survivors := make([]graph.UserID, len(m.lru))
		for i, e := range m.lru {
			survivors[i] = e.seeker
		}
		if resident := c.Seekers(); !slices.Equal(resident, survivors) {
			t.Fatalf("step %d (op %d): resident in LRU order %v, model %v", step, op, resident, survivors)
		}
		if counters := c.Counters(); counters != m.counters {
			t.Fatalf("step %d (op %d): counters %+v, model %+v", step, op, counters, m.counters)
		}
	}
	for _, e := range slices.Clone(m.lru) {
		h, hit := c.Lookup(e.seeker, m.gen, 0)
		if stale := e.gen < m.floor; hit == stale || (hit && h != w.pool[e.horizon]) {
			t.Fatalf("seeker %d at the end: hit=%v with the model's horizon=%v, stale=%v", e.seeker, hit, h == w.pool[e.horizon], stale)
		}
	}
}

// randomScanScript draws a script that fills the cache before it starts
// invalidating, so edge batches meet resident horizons.
func randomScanScript(rng *rand.Rand) []byte {
	var data []byte
	for k, n := 0, 40+rng.Intn(120); k < n; k++ {
		op := byte(rng.Intn(10))
		if k < scanCapacity {
			op = 0
		}
		data = append(data, op, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
	}
	return data
}

// scanSeeds are the seeded scripts: the differential test runs them,
// the fuzz target starts from them.
func scanSeeds() [][]byte {
	seeds := [][]byte{
		nil,
		{4, 0, 0, 0, 1, 5, 6, 1, 2, 3}, // invalidating an empty cache
		// seven Puts into six slots (seeker 0 evicted), a refresh of seeker
		// 6, then edges between the first users of neighbouring lines
		{0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 2, 0, 0, 0, 3, 3, 0, 0, 0, 4, 4, 0, 0, 0, 5, 5, 0, 0, 0, 6, 6, 0, 0,
			0, 6, 7, 0, 0, 4, 4, 176, 4, 177, 4, 4, 179, 4, 188, 4, 4, 248, 6, 236, 4, 6, 236, 18, 100, 9, 0, 1, 0, 0},
		// full invalidation, a Put over the stale entry, lazy reaping by Lookup
		{0, 1, 5, 0, 0, 0, 2, 6, 0, 0, 6, 0, 0, 0, 0, 8, 1, 1, 0, 0, 0, 2, 7, 0, 0, 5, 5, 9, 9, 9, 9, 2, 1, 0, 0},
	}
	for seed := int64(1); seed <= 40; seed++ {
		seeds = append(seeds, randomScanScript(rand.New(rand.NewSource(seed))))
	}
	return seeds
}

// TestInvalidationMatchesModel: through Puts, refreshes, evictions,
// full invalidations and lookups, an edge batch of 1 to 512 endpoints —
// duplicates, self-pairs, ids no horizon holds, neighbours on a line,
// weights that tie a member's σ or the floor exactly — drops exactly
// the resident entries the rule from its definition drops, over
// horizons of 1 to 3,000 users.
func TestInvalidationMatchesModel(t *testing.T) {
	for _, data := range scanSeeds() {
		checkScanScript(t, data)
	}
}

func FuzzInvalidateEdges(f *testing.F) {
	for _, data := range scanSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 200*scanRecord {
			t.Skip() // each record is checked against the whole model
		}
		checkScanScript(t, data)
	})
}

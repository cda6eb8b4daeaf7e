package qcache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/proximity"
)

// scanWorld is what the invalidation scripts run over: disjoint
// unit-weight lines of 1 to 3,000 users (so a full horizon is its whole
// component) and a pool of horizons over them, full and truncated the
// way MaxHorizonUsers truncates, each beside the member set an
// expansion of the same graph gives without going through core.
type scanWorld struct {
	absent  int // ids below this are in the graph but in no horizon
	users   int // ids at or past this are in no graph
	pool    []*core.SeekerHorizon
	members []map[graph.UserID]struct{}
}

var (
	scanWorldOnce sync.Once
	theScanWorld  scanWorld
)

func loadScanWorld(t testing.TB) *scanWorld {
	scanWorldOnce.Do(func() {
		sizes := []int{1200, 1, 2, 9, 60, 500, 3000} // no seeker comes from the first line
		theScanWorld.absent = sizes[0]
		starts := make([]int, len(sizes))
		for i, size := range sizes {
			starts[i] = theScanWorld.users
			theScanWorld.users += size
		}
		e := linesEngine(t, sizes, 1)
		rng := rand.New(rand.NewSource(20))
		for k := 0; k < 48; k++ {
			comp := 1 + k%(len(sizes)-1)
			seeker := graph.UserID(starts[comp] + rng.Intn(sizes[comp]))
			maxUsers := 0
			if k%2 == 1 {
				maxUsers = 1 + rng.Intn(sizes[comp])
			}
			h, err := e.MaterializeHorizon(seeker, maxUsers)
			if err != nil {
				t.Fatal(err)
			}
			it, err := proximity.NewIterator(e.Graph(), seeker, core.DefaultConfig().Proximity)
			if err != nil {
				t.Fatal(err)
			}
			set := make(map[graph.UserID]struct{})
			for maxUsers == 0 || len(set) < maxUsers {
				entry, ok := it.Next()
				if !ok {
					break
				}
				set[entry.User] = struct{}{}
			}
			if len(set) != h.Size() {
				t.Fatalf("horizon %d: %d users materialized, %d expanded", k, h.Size(), len(set))
			}
			theScanWorld.pool = append(theScanWorld.pool, h)
			theScanWorld.members = append(theScanWorld.members, set)
		}
	})
	if len(theScanWorld.pool) == 0 {
		t.Fatal("scan world failed to build")
	}
	return &theScanWorld
}

// modelEntry is one resident entry of the reference cache.
type modelEntry struct {
	seeker  graph.UserID
	gen     uint64
	horizon int // index into the world's pool
}

// scanModel is the brute-force reference: a slice in LRU order (hottest
// first) and the rule "an edge batch drops an entry iff its member set
// holds one of the batch's endpoints".
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

func (m *scanModel) invalidateEdges(w *scanWorld, edges [][2]graph.UserID) int {
	m.gen++
	before := len(m.lru)
	m.lru = slices.DeleteFunc(m.lru, func(e modelEntry) bool {
		for _, edge := range edges {
			for _, end := range edge {
				if _, ok := w.members[e.horizon][end]; ok {
					return true
				}
			}
		}
		return false
	})
	m.counters.Invalidations += int64(before - len(m.lru))
	return before - len(m.lru)
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
//	4   InvalidateEdge(ab, cd): two 16-bit ids, reaching past the graph
//	5   InvalidateEdges of 1, 2, 3, 8, 16, 100 or 256 edges (by a) drawn
//	    from a generator seeded by b, c, d: every fifth a self-pair, every
//	    seventh a repeat of the one before; when d is odd every id but
//	    one is an id no horizon holds, below or above the ones they do,
//	    so whether anything drops hangs on one endpoint — often the
//	    lowest or the highest of the batch
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
			got, want = c.InvalidateEdge(u, v), m.invalidateEdges(w, [][2]graph.UserID{{u, v}})
		case 5:
			edges := make([][2]graph.UserID, []int{1, 2, 3, 8, 16, 100, 256}[a%7])
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
					edges[i] = [2]graph.UserID{u, u}
				default:
					edges[i] = [2]graph.UserID{draw(), draw()}
				}
			}
			if cd%2 == 1 {
				edges[rng.Intn(len(edges))][rng.Intn(2)] = graph.UserID(rng.Intn(span))
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
// full invalidations and lookups, an edge batch of 1 to
// 512 endpoints — duplicates, self-pairs and ids no horizon holds
// included — drops exactly the resident entries whose horizon holds an
// endpoint, over horizons of 1 to 3,000 users, full and truncated.
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

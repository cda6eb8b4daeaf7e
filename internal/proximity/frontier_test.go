package proximity

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// sortedModel is what bandFrontier must behave as: the live items kept
// sorted by (p desc, u asc) with a binary search on every push. It never
// calls before or compareItems, so a fault in either cannot hide in it.
type sortedModel []frontierItem

func modelOrder(a, b frontierItem) int {
	if c := cmp.Compare(b.p, a.p); c != 0 {
		return c
	}
	return cmp.Compare(a.u, b.u)
}

func (m *sortedModel) push(x frontierItem) {
	i, _ := slices.BinarySearchFunc(*m, x, modelOrder)
	*m = slices.Insert(*m, i, x)
}

func (m *sortedModel) live(u graph.UserID, p float64) bool {
	_, found := slices.BinarySearchFunc(*m, frontierItem{p: p, u: u}, modelOrder)
	return found
}

// frontierScript drives one bandFrontier and its model through a seeded
// sequence of pushes and pops that keeps the expansion's rule — no push
// above the proximity of the last pop — and checks every pop and peek.
type frontierScript struct {
	t     *testing.T
	rng   *rand.Rand
	f     *bandFrontier
	m     sortedModel
	last  float64   // proximity of the last pop
	ties  []float64 // a few proximities many pushes share
	floor float64

	widest   int  // most items an opened band held
	overflow bool // some push went to the overflow heap
	capped   bool // the last band past the cap was opened
}

func (s *frontierScript) check(what string) {
	s.t.Helper()
	got, ok := s.f.peek()
	var want frontierItem
	if len(s.m) > 0 {
		want = s.m[0]
	}
	if ok != (len(s.m) > 0) || got != want {
		s.t.Fatalf("%s: peek = %+v %v, want %+v (%d live)", what, got, ok, want, len(s.m))
	}
}

func (s *frontierScript) pop(what string) {
	s.t.Helper()
	s.check(what)
	got, ok := s.f.pop()
	if !ok {
		return
	}
	if got != s.m[0] {
		s.t.Fatalf("%s: pop = %+v, want %+v", what, got, s.m[0])
	}
	s.m = s.m[1:]
	s.last = got.p
	s.widest = max(s.widest, len(s.f.run))
	s.capped = s.capped || s.f.nb == maxBands && s.f.cur == maxBands-1
}

// candidate draws a proximity no larger than the last pop's: mostly one
// hop down (a factor near λ), some anywhere below, some equal to the
// last pop or to a shared tie value, some many bands down.
func (s *frontierScript) candidate(lambda float64) float64 {
	switch r := s.rng.Intn(10); {
	case r < 4:
		return s.last * lambda * (0.5 + 0.5*s.rng.Float64())
	case r < 6:
		return s.last * s.rng.Float64()
	case r < 7:
		return s.last
	case r < 9:
		i := s.rng.Intn(len(s.ties))
		for i < len(s.ties) && s.ties[i] > s.last {
			i++
		}
		if i == len(s.ties) {
			return s.last
		}
		return s.ties[i]
	default:
		return s.last * math.Pow(s.rng.Float64(), 12)
	}
}

func (s *frontierScript) push(lambda float64) {
	p := s.candidate(lambda)
	if p < s.floor || p <= 0 {
		return // the expansion pushes nothing below the floor
	}
	var u graph.UserID
	if len(s.m) > 0 && s.rng.Intn(4) == 0 {
		u = s.m[s.rng.Intn(len(s.m))].u // a stale duplicate's user
	} else {
		u = graph.UserID(s.rng.Intn(1 << 17))
	}
	if s.m.live(u, p) {
		return // a user is pushed again only at a new proximity
	}
	x := frontierItem{p: p, u: u, h: int32(s.rng.Intn(8))}
	over := len(s.f.over.items)
	s.f.push(x)
	s.overflow = s.overflow || len(s.f.over.items) > over
	s.m.push(x)
}

// TestBandFrontierMatchesSort holds bandFrontier's pops and peeks to a
// sort by (p desc, u asc) under seeded scripts in the expansion's shape:
// each pop is followed by a burst of pushes, none above it. The scripts
// tie proximities often (so ids decide), push users already live at
// another proximity (stale duplicates), push into the open band (λ = 1,
// and draws above λ·last), and run past the band cap (floor 0, small λ).
// Bands fill well past smallBand, so the radix passes and the runs they
// leave are exercised, ties included.
func TestBandFrontierMatchesSort(t *testing.T) {
	var f bandFrontier // one frontier throughout: buffers carry over between resets
	var widest int
	var overflow, capped bool
	for seed := int64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lambda := []float64{0.3, 0.48, 0.9, 1}[seed%4]
		floor := []float64{0, 0.05}[seed/4%2]
		s := &frontierScript{t: t, rng: rng, f: &f, last: 1, floor: floor}
		for i := 0; i < 6; i++ {
			s.ties = append(s.ties, 1-rng.Float64())
		}
		slices.SortFunc(s.ties, func(a, b float64) int { return cmp.Compare(b, a) })
		f.reset(1, lambda, floor)
		first := frontierItem{p: 1, u: graph.UserID(rng.Intn(100))}
		f.push(first)
		s.m.push(first)
		for op := 0; op < 2000 && len(s.m) > 0; op++ {
			s.pop("script")
			for n := rng.Intn(6); n > 0; n-- {
				s.push(lambda)
			}
		}
		for len(s.m) > 0 {
			s.pop("drain")
		}
		s.check("drained")
		widest = max(widest, s.widest)
		overflow = overflow || s.overflow
		capped = capped || s.capped
	}
	if widest <= smallBand || !overflow || !capped {
		t.Fatalf("scripts too tame: widest band %d (radix sort above %d), overflow %v, band cap reached %v",
			widest, smallBand, overflow, capped)
	}
}

// TestSortBandTies: bands of one proximity, of two proximities that
// share their high bytes, and of many ties among distinct values come
// out in (p desc, u asc) order, at sizes on both sides of smallBand.
func TestSortBandTies(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var spare []frontierItem
	var count [radixBytes][256]uint32
	near := math.Nextafter(0.3, 1)
	for _, n := range []int{smallBand, smallBand + 1, 500, 5000} {
		for _, values := range [][]float64{{0.3}, {0.3, near}, {0.3, near, 0.25, 0.125, 0.2}} {
			a := make([]frontierItem, n)
			for i := range a {
				a[i] = frontierItem{p: values[rng.Intn(len(values))], u: graph.UserID(rng.Intn(1 << 20))}
			}
			want := slices.Clone(a)
			slices.SortFunc(want, modelOrder)
			var got []frontierItem
			got, spare = sortBand(a, spare, &count)
			if !slices.Equal(got, want) {
				t.Fatalf("n %d, proximities %v: band sorted out of order", n, values)
			}
		}
	}
}

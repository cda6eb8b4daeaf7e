package social

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/search"
)

// keepVariant is one configuration the keeping rule is checked under.
type keepVariant struct {
	prox    proximity.Params
	weights []float64 // Befriend weights are drawn from these; nil: uniform in [0.1, 1)
}

// keepVariants: dyadic proximity — α and every weight a sum of few
// powers of two, so path products are exact and ties between paths are
// common — and a serving-like α of 0.6.
var keepVariants = []keepVariant{
	{proximity.Params{Alpha: 0.5, SelfWeight: 1, MinSigma: 1.0 / 64}, []float64{1, 0.75, 0.5, 0.25}},
	{proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.01}, nil},
}

// keepHarness drives a cached service and a cache-less twin through the
// same writes, compacting only where it is told to. After every
// compaction it checks that each horizon the cache kept equals a fresh
// expansion of the new snapshot — users, proximity bits, hops — and
// that every user's answer equals the twin's, before it queries
// everyone again and so re-warms what was dropped.
type keepHarness struct {
	t        testing.TB
	v        keepVariant
	svc, ref *Service
	ends     []string // endpoints befriended since the last compaction
	newUsers int
	// kept counts the horizons compactions kept; keptMembers, those of
	// them holding an endpoint of a folded edge (a rule that drops every
	// horizon an endpoint is a member of would drop them); dropped, the
	// ones dropped.
	kept, keptMembers, dropped int
}

func newKeepHarness(t testing.TB, v keepVariant) *keepHarness {
	mk := func(cacheSize int) *Service {
		cfg := DefaultServiceConfig()
		cfg.Proximity = v.prox
		cfg.AutoCompactEvery = 1 << 30
		cfg.SeekerCacheSize = cacheSize
		svc, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	return &keepHarness{t: t, v: v, svc: mk(64), ref: mk(-1)}
}

func (h *keepHarness) befriend(a, b string, w float64) {
	h.t.Helper()
	for _, s := range []*Service{h.svc, h.ref} {
		if err := s.Befriend(a, b, w); err != nil {
			h.t.Fatal(err)
		}
	}
	h.ends = append(h.ends, a, b)
}

func (h *keepHarness) tag(user, item, tag string) {
	h.t.Helper()
	for _, s := range []*Service{h.svc, h.ref} {
		if err := s.Tag(user, item, tag); err != nil {
			h.t.Fatal(err)
		}
	}
}

func (h *keepHarness) newUser() string {
	h.newUsers++
	return fmt.Sprintf("n%d", h.newUsers)
}

// graph returns the cached service's compacted graph.
func (h *keepHarness) graph() *graph.Graph {
	g, _ := h.svc.overlay.Snapshot()
	return g
}

// compact folds the pending writes on both services and checks the
// result. It returns the seekers whose horizons the compaction kept.
func (h *keepHarness) compact() []graph.UserID {
	h.t.Helper()
	before := len(h.svc.cache.Seekers())
	for _, s := range []*Service{h.svc, h.ref} {
		if err := s.Flush(); err != nil {
			h.t.Fatal(err)
		}
	}
	h.svc.mu.Lock()
	eng := h.svc.view.Load().eng
	var ends []graph.UserID
	for _, name := range h.ends {
		if id, ok := h.svc.names.Users.ID(name); ok {
			ends = append(ends, id)
		}
	}
	h.svc.mu.Unlock()
	h.ends = h.ends[:0]
	slices.Sort(ends)
	ends = slices.Compact(ends)
	kept := h.svc.cache.Seekers()
	h.dropped += before - len(kept)
	g := h.graph()
	for _, seeker := range kept {
		cached, ok := h.svc.cache.Lookup(seeker, h.svc.cache.Generation(), 0)
		if !ok {
			h.t.Fatalf("seeker %d is resident but not served after an edge-scoped compaction", seeker)
		}
		fresh, err := eng.MaterializeHorizon(seeker, 0)
		if err != nil {
			h.t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, fresh) {
			h.t.Fatalf("seeker %d: the compaction of %v kept a horizon of %d users where the new graph gives %d:\n kept %+v\nfresh %+v",
				seeker, ends, cached.Size(), fresh.Size(), cached, fresh)
		}
		h.kept++
		if slices.ContainsFunc(h.expand(g, seeker), func(e proximity.Entry) bool {
			_, ok := slices.BinarySearch(ends, e.User)
			return ok
		}) {
			h.keptMembers++
		}
	}
	h.checkAnswers()
	return kept
}

// checkAnswers asks every user one exact query on both services. The
// twin has no cache, so its DoBatch materializes each horizon afresh.
func (h *keepHarness) checkAnswers() {
	h.t.Helper()
	ctx := context.Background()
	for i, seeker := range h.svc.Users() {
		req := search.Request{Seeker: seeker, Tags: []string{fmt.Sprintf("t%d", i%4)}, K: 5, Mode: search.ModeExact}
		got, err := h.svc.Do(ctx, req)
		want := h.ref.DoBatch(ctx, []search.Request{req})[0]
		if (err == nil) != (want.Err == nil) {
			h.t.Fatalf("seeker %s: cached error %v, reference error %v", seeker, err, want.Err)
		}
		if err == nil && !reflect.DeepEqual(got.Results, want.Response.Results) {
			h.t.Fatalf("seeker %s: cached %+v, reference %+v", seeker, got.Results, want.Response.Results)
		}
	}
}

func (h *keepHarness) weight(rng *rand.Rand) float64 {
	if h.v.weights != nil {
		return h.v.weights[rng.Intn(len(h.v.weights))]
	}
	return 0.1 + 0.9*rng.Float64()
}

// randomWorld builds three communities of eight users, each a ring with
// chords, every user tagging three items, and compacts it — which
// warms every user's horizon.
func (h *keepHarness) randomWorld(rng *rand.Rand) {
	h.t.Helper()
	user := func(u int) string { return fmt.Sprintf("u%d", u) }
	for c := 0; c < 3; c++ {
		for i := 0; i < 8; i++ {
			h.befriend(user(8*c+i), user(8*c+(i+1)%8), h.weight(rng))
			if j := rng.Intn(8); j != i {
				h.befriend(user(8*c+i), user(8*c+j), h.weight(rng))
			}
		}
	}
	for u := 0; u < 24; u++ {
		for k := 0; k < 3; k++ {
			h.tag(user(u), fmt.Sprintf("i%d", rng.Intn(30)), fmt.Sprintf("t%d", rng.Intn(4)))
		}
	}
	h.compact()
}

// step applies one script record. kind mod 6 picks
//
//	0 raise an edge of the compacted graph (a, b pick it)
//	1 re-declare one at a lower weight
//	2 befriend user a and a newly interned user
//	3 befriend users a and b — in most horizons, neither is a member
//	4 befriend two members of user a's horizon at the weight whose
//	  candidate equals the farther one's proximity exactly, or a member
//	  and a new user at the weight that lands exactly on the floor
//	5 compact
//
// with the weights drawn from a generator seeded by a and b.
func (h *keepHarness) step(kind, a, b byte) {
	h.t.Helper()
	users := h.svc.Users()
	pick := func(x byte) string { return users[int(x)%len(users)] }
	rng := rand.New(rand.NewSource(int64(a)<<8 | int64(b)))
	switch kind % 6 {
	case 0, 1:
		edges := h.graph().Edges()
		if len(edges) == 0 {
			return
		}
		e := edges[(int(a)<<8|int(b))%len(edges)]
		h.befriend(users[e.U], users[e.V], h.nearWeight(e.Weight, kind%6 == 0, rng))
	case 2:
		h.befriend(pick(a), h.newUser(), h.weight(rng))
	case 3:
		if x, y := pick(a), pick(b); x != y {
			h.befriend(x, y, h.weight(rng))
		}
	case 4:
		h.tie(pick(a), users, rng)
	case 5:
		h.compact()
	}
}

// nearWeight is a weight above old (up) or below it: the nearest one on
// the menu, old itself when there is none, or a uniform draw between
// old and 1 (or 0).
func (h *keepHarness) nearWeight(old float64, up bool, rng *rand.Rand) float64 {
	if h.v.weights == nil {
		f := 0.1 + 0.9*rng.Float64()
		if up {
			return old + (1-old)*f
		}
		return old * f
	}
	w := old
	for _, m := range h.v.weights {
		if up && m > old && (w == old || m < w) || !up && m < old && (w == old || m > w) {
			w = m
		}
	}
	return w
}

// tie befriends two members x, y of seeker's horizon at a weight w with
// σ_x·w·α = σ_y exactly, or a member x and a new user at a weight with
// σ_x·w·α = MinSigma exactly, choosing at random among those the
// compacted graph offers.
func (h *keepHarness) tie(seeker string, users []string, rng *rand.Rand) {
	h.t.Helper()
	id := graph.UserID(slices.Index(users, seeker))
	g := h.graph()
	if int(id) >= g.NumUsers() {
		return // interned since the last compaction: no horizon yet
	}
	list := h.expand(g, id)
	type option struct {
		x, y graph.UserID // y < 0: a new user
		w    float64
	}
	var opts []option
	alpha, floor := h.v.prox.Alpha, h.v.prox.MinSigma
	exact := func(from, to float64) []float64 {
		var ws []float64
		q := to / (from * alpha)
		for _, w := range []float64{math.Nextafter(q, 0), q, math.Nextafter(q, 2)} {
			if w > 0 && w <= 1 && from*w*alpha == to {
				ws = append(ws, w)
			}
		}
		return ws
	}
	for _, x := range list {
		for _, y := range list {
			if x.User != y.User {
				for _, w := range exact(x.Prox, y.Prox) {
					opts = append(opts, option{x.User, y.User, w})
				}
			}
		}
		for _, w := range exact(x.Prox, floor) {
			opts = append(opts, option{x.User, -1, w})
		}
	}
	if len(opts) == 0 {
		return
	}
	o := opts[rng.Intn(len(opts))]
	other := h.newUser()
	if o.y >= 0 {
		other = users[o.y]
	}
	h.befriend(users[o.x], other, o.w)
}

// expand is seeker's horizon in g, expanded with the proximity
// iterator directly.
func (h *keepHarness) expand(g *graph.Graph, seeker graph.UserID) []proximity.Entry {
	h.t.Helper()
	it, err := proximity.NewIterator(g, seeker, h.v.prox)
	if err != nil {
		h.t.Fatal(err)
	}
	var list []proximity.Entry
	for e, ok := it.Next(); ok; e, ok = it.Next() {
		list = append(list, e)
	}
	return list
}

const keepRecord = 3 // bytes per script record: kind, a, b

// checkKeepScript runs one script: byte 0 picks the variant, byte 1
// seeds the world, and every three bytes after are a step; a last
// compaction folds whatever the script left pending.
func checkKeepScript(t testing.TB, data []byte) *keepHarness {
	if len(data) < 2 {
		data = append(data, 0, 0)
	}
	h := newKeepHarness(t, keepVariants[int(data[0])%len(keepVariants)])
	h.randomWorld(rand.New(rand.NewSource(int64(data[1]))))
	for data = data[2:]; len(data) >= keepRecord; data = data[keepRecord:] {
		h.step(data[0], data[1], data[2])
	}
	h.compact()
	return h
}

// keepScript draws a script of rounds of one to twelve writes, each
// round ending in a compaction.
func keepScript(rng *rand.Rand, variant int) []byte {
	data := []byte{byte(variant), byte(rng.Intn(256))}
	for round := 0; round < 10; round++ {
		for k := rng.Intn(12); k >= 0; k-- {
			data = append(data, byte(rng.Intn(5)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
		data = append(data, 5, 0, 0)
	}
	return data
}

// keepSeeds are the seeded scripts, eight per variant: the differential
// test runs them and the fuzz target starts from them.
func keepSeeds() [][]byte {
	var seeds [][]byte
	for seed := int64(1); seed <= 16; seed++ {
		seeds = append(seeds, keepScript(rand.New(rand.NewSource(seed)), int(seed)%len(keepVariants)))
	}
	return seeds
}

// TestCompactionKeepsUnchangedHorizons is the soundness differential of
// proximity-scoped invalidation: rounds of Befriend batches — raises,
// lower re-declarations, new users, edges between non-members, exact
// ties with a member's proximity or the floor — folded by compactions.
// Every horizon a compaction keeps must equal a fresh expansion of the
// new snapshot, and every answer the cache-less twin's. It also checks
// the scripts keep horizons an endpoint is a member of, or it would not
// be testing the rule beyond membership.
func TestCompactionKeepsUnchangedHorizons(t *testing.T) {
	var kept, keptMembers, dropped int
	for _, data := range keepSeeds() {
		h := checkKeepScript(t, data)
		kept, keptMembers, dropped = kept+h.kept, keptMembers+h.keptMembers, dropped+h.dropped
	}
	t.Logf("compactions kept %d horizons (%d holding an endpoint of a folded edge) and dropped %d", kept, keptMembers, dropped)
	if keptMembers == 0 || dropped == 0 {
		t.Fatalf("kept %d horizons holding an endpoint and dropped %d: the scripts do not exercise the rule", keptMembers, dropped)
	}
}

func FuzzCompactionKeepsUnchangedHorizons(f *testing.F) {
	for _, data := range keepSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2+150*keepRecord {
			t.Skip() // every compaction queries every user twice
		}
		checkKeepScript(t, data)
	})
}

// TestKeepingRuleEdgeCases holds the rule to hand-checked cases on a
// dyadic graph (α = 0.5, floor 1/64), users interned in this id order:
//
//	s(0) –1– x(1) –0.5– v(3)      σ from s: s 1, x 0.5, z 0.5, y 0.25,
//	s(0) –0.5– y(2)               v 0.125 at 2 hops (through x)
//	s(0) –1– z(4)
//
// Each case folds one Befriend and says whether s's cached horizon may
// stay. The compaction's checks then hold whatever stayed to a fresh
// expansion. The tie fails if the rule compares with > instead of ≥
// (v keeps 2 hops where the fresh expansion reaches it in 1), the
// reverse-direction raise fails if only (lower id → higher id) is
// tested, and the below-the-floor case fails if the floor test is
// dropped.
func TestKeepingRuleEdgeCases(t *testing.T) {
	for _, c := range []struct {
		name   string
		a, b   string
		weight float64
		keep   bool
	}{
		{"a second path to v at v's proximity, one hop shorter", "s", "v", 0.25, false},
		{"raises v only from the higher id's side", "v", "z", 1, false},
		{"a new user onto the floor exactly", "v", "new", 0.25, false},
		{"a new user below the floor", "v", "new", 0.125, true},
		{"between members, raising neither", "y", "v", 0.25, true},
		{"v's best edge re-declared lower: the graph keeps the old weight, a tie", "x", "v", 0.25, false},
		{"between non-members", "new", "other", 1, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newKeepHarness(t, keepVariants[0])
			for _, u := range []string{"s", "x", "y", "v", "z"} {
				for k := 0; k < 4; k++ {
					h.tag(u, "i"+u, fmt.Sprintf("t%d", k))
				}
			}
			h.befriend("s", "x", 1)
			h.befriend("x", "v", 0.5)
			h.befriend("s", "y", 0.5)
			h.befriend("s", "z", 1)
			h.compact()
			h.befriend(c.a, c.b, c.weight)
			kept := h.compact()
			if got := slices.Contains(kept, 0); got != c.keep {
				t.Fatalf("Befriend(%s, %s, %g): s's horizon kept = %v, want %v", c.a, c.b, c.weight, got, c.keep)
			}
		})
	}
}

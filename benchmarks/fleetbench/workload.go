package main

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/tagstore"
)

// Shape of the generated traffic.
const (
	queryK       = 10
	tagsPerQuery = 2
	// hotSeekers users make the hot set: 64 per replica against a
	// 256-entry cache, so after warm-up every hot read is a cache hit.
	// They are sampled uniformly (not low ids: in a Barabási–Albert graph
	// those are the hubs) under hotSetSeed, not under --seed: horizon
	// sizes are heavy-tailed, and hot sets drawn per seed differed by
	// ±9% in mean horizon — a spread in work per op, seed to seed, that
	// no amount of measuring removes. --seed still draws every request:
	// which hot seeker, which tags, which writes.
	hotSeekers = 192
	hotSetSeed = 42
	// Zipf over the hot set's ranks. The offset flattens the head (the
	// top seeker draws ~5% of the traffic, not ~25%), so one seeker's
	// horizon size does not decide a seed's cost per op.
	hotZipfS = 1.1
	hotZipfV = 8
	// neighbourhoodBias is the share of query tags drawn from the
	// vocabulary of the seeker and their friends, so most queries have
	// social answers (gen.Workload's rule).
	neighbourhoodBias = 0.8
	batchSize         = 64
	// In mixed_churn every block of churnBlock ops holds tagsPerBlock
	// Tag writes and one Befriend at fixed positions, and the fleet's
	// compaction heartbeat fires after every writesPerCycle writes.
	churnBlock     = 100
	tagsPerBlock   = 4
	writesPerCycle = 64
	cycleOps       = writesPerCycle * churnBlock / (tagsPerBlock + 1)
	warmupOps      = hotSeekers
)

// workload is one traffic mix. opsPerSecond sizes the fixed op list:
// a run of --seconds S drains opsPerSecond×S ops, however long that
// takes. The rates were measured on the commit that added the benchmark
// so that its timed phase lasts about S seconds; they are frozen, so a
// faster commit finishes the same work sooner.
type workload struct {
	name  string
	why   string
	hot   bool // seekers Zipf-drawn from the hot set, else uniform over all users
	batch bool // batchSize queries per request through /v2/search/batch
	churn bool // writes beside the reads, heartbeat every writesPerCycle writes

	opsPerSecond float64
	// sloMS is the read latency limit behind slo_ok_share, frozen at
	// about 4× the read p50 measured on the commit that added the
	// benchmark.
	sloMS float64
}

var workloads = []workload{
	{
		name: "read_hot", hot: true, opsPerSecond: 3200, sloMS: 2.0,
		why: "single queries from 192 cached seekers: the engine only merges, so fleet hop, HTTP and JSON dominate",
	},
	{
		name: "read_cold", opsPerSecond: 880, sloMS: 7.5,
		why: "single queries from all 10k seekers, 13x the fleet cache: horizon expansion dominates, the hop is minor",
	},
	{
		name: "batch_hot", hot: true, batch: true, opsPerSecond: 75, sloMS: 110,
		why: "64-query batches over the hot seekers: per-replica fan-out, slowest part sets the time, wire cost amortised",
	},
	{
		name: "mixed_churn", hot: true, churn: true, opsPerSecond: 390, sloMS: 2.0,
		why: "hot reads with 4% Tag and 1% Befriend through the replication log: append, fan-out, invalidation, compaction",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sizeOps is the fixed op count of a run: opsPerSecond × seconds, for
// mixed_churn rounded to whole heartbeat cycles so every replica
// compacts a whole, identical number of times.
func (w workload) sizeOps(seconds int) int {
	n := int(w.opsPerSecond * float64(seconds))
	if w.churn {
		n = (n + cycleOps/2) / cycleOps * cycleOps
		if n < cycleOps {
			n = cycleOps
		}
	}
	return n
}

type opKind uint8

const (
	opRead opKind = iota
	opBatch
	opTag
	opBefriend
	// opFlush is not a request: the client that draws it fires the
	// fleet's compaction heartbeat synchronously (stack.flush).
	opFlush
)

func (k opKind) isRead() bool  { return k == opRead || k == opBatch }
func (k opKind) isWrite() bool { return k == opTag || k == opBefriend }

func (k opKind) path() string {
	switch k {
	case opRead:
		return "/v2/search"
	case opBatch:
		return "/v2/search/batch"
	case opTag:
		return "/v1/tag"
	case opBefriend:
		return "/v1/friend"
	}
	return ""
}

func (k opKind) name() string {
	switch k {
	case opRead:
		return "read"
	case opBatch:
		return "batch"
	case opTag:
		return "tag"
	case opBefriend:
		return "befriend"
	}
	return "flush"
}

// query is one search: seeker and tags by name, as the wire carries
// them, and by id, for the ledger's calls below the name layer; k and
// mode are fixed.
type query struct {
	seeker   string
	tags     []string
	seekerID graph.UserID
	tagIDs   []tagstore.TagID
}

func (q query) coreQuery() core.Query {
	return core.Query{Seeker: q.seekerID, Tags: q.tagIDs, K: queryK}
}

func (q query) request() search.Request {
	return search.Request{Seeker: q.seeker, Tags: q.tags, K: queryK, Mode: search.ModeExact}
}

func (q query) appendJSON(b []byte) []byte {
	b = append(b, `{"seeker":"`...)
	b = append(b, q.seeker...)
	b = append(b, `","tags":[`...)
	for i, t := range q.tags {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, t...)
		b = append(b, '"')
	}
	b = append(b, `],"k":`...)
	b = strconv.AppendInt(b, queryK, 10)
	return append(b, `,"mode":"exact"}`...)
}

// batchBody is the /v2/search/batch request for qs.
func batchBody(qs []query) []byte {
	b := []byte(`{"queries":[`)
	for i, q := range qs {
		if i > 0 {
			b = append(b, ',')
		}
		b = q.appendJSON(b)
	}
	return append(b, `]}`...)
}

// op is one step of a client: a request with its pre-encoded body, or a
// heartbeat. queries holds what a read asked, for the oracle and the
// ledger.
type op struct {
	kind    opKind
	body    []byte
	queries []query
}

// generator draws the requests of one (workload, seed) pair. All
// randomness comes from the one seeded source, so equal seeds give
// byte-identical op lists.
type generator struct {
	c    *corpus
	w    workload
	rng  *rand.Rand
	hot  []int // the hot set, in Zipf rank order
	zipf *rand.Zipf
	tagZ *rand.Zipf
}

func newGenerator(c *corpus, w workload, seed int64) *generator {
	g := &generator{c: c, w: w, rng: rand.New(rand.NewSource(seed))}
	g.hot = rand.New(rand.NewSource(hotSetSeed)).Perm(c.ds.Graph.NumUsers())[:hotSeekers]
	g.zipf = rand.NewZipf(g.rng, hotZipfS, hotZipfV, hotSeekers-1)
	g.tagZ = rand.NewZipf(g.rng, 1.1, 1, uint64(c.ds.Store.NumTags()-1))
	return g
}

func (g *generator) seeker() int {
	if g.w.hot {
		return g.hot[g.zipf.Uint64()]
	}
	return g.rng.Intn(g.c.ds.Graph.NumUsers())
}

func (g *generator) queryFor(seeker int) query {
	nbrs, _ := g.c.ds.Graph.Neighbors(graph.UserID(seeker))
	var tags [tagsPerQuery]int
	for i := 0; i < tagsPerQuery; {
		t := int(g.tagZ.Uint64())
		if g.rng.Float64() < neighbourhoodBias {
			// A random member of {seeker} ∪ friends, then one of their tags.
			u := seeker
			if j := g.rng.Intn(len(nbrs) + 1); j > 0 {
				u = int(nbrs[j-1])
			}
			if ut := g.c.ds.Store.UserTags(int32(u)); len(ut) > 0 {
				t = int(ut[g.rng.Intn(len(ut))])
			}
		}
		dup := false
		for _, prev := range tags[:i] {
			dup = dup || prev == t
		}
		if !dup {
			tags[i] = t
			i++
		}
	}
	q := query{
		seeker: userName(seeker), seekerID: graph.UserID(seeker),
		tags: make([]string, tagsPerQuery), tagIDs: make([]tagstore.TagID, tagsPerQuery),
	}
	for i, t := range tags {
		q.tags[i] = tagName(t)
		q.tagIDs[i] = tagstore.TagID(t)
	}
	return q
}

func (g *generator) read() op {
	q := g.queryFor(g.seeker())
	return op{kind: opRead, body: q.appendJSON(nil), queries: []query{q}}
}

func (g *generator) batch() op {
	o := op{kind: opBatch, queries: make([]query, batchSize)}
	for i := range o.queries {
		o.queries[i] = g.queryFor(g.seeker())
	}
	o.body = batchBody(o.queries)
	return o
}

// tag writes an existing (user, item, tag) triple by name, so the
// dictionaries stay the size the corpus gave them.
func (g *generator) tag() op {
	u, i, t := g.tagIDs()
	return op{kind: opTag, body: []byte(fmt.Sprintf(`{"user":"u%d","item":"i%d","tag":"t%d"}`, u, i, t))}
}

func (g *generator) tagIDs() (user, item, tag int) {
	ds := g.c.ds
	return g.rng.Intn(ds.Graph.NumUsers()), g.rng.Intn(ds.Store.NumItems()), int(g.tagZ.Uint64())
}

func (g *generator) befriend() op {
	a, b := g.edgeIDs()
	return op{kind: opBefriend, body: []byte(fmt.Sprintf(`{"a":"u%d","b":"u%d","weight":0.5}`, a, b))}
}

func (g *generator) edgeIDs() (a, b int) {
	n := g.c.ds.Graph.NumUsers()
	a = g.rng.Intn(n)
	b = g.rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return a, b
}

// warmup is the list drained before the clock starts: one single query
// per hot seeker, so every replica's cache holds its share, or as many
// uniform reads for a cold workload (connections and pools warm up;
// the cache cannot).
func (g *generator) warmup() []op {
	ops := make([]op, 0, warmupOps)
	for i := 0; i < warmupOps; i++ {
		s := g.rng.Intn(g.c.ds.Graph.NumUsers())
		if g.w.hot {
			s = g.hot[i]
		}
		q := g.queryFor(s)
		ops = append(ops, op{kind: opRead, body: q.appendJSON(nil), queries: []query{q}})
	}
	return ops
}

// ops returns the timed list: n requests, plus for mixed_churn one
// opFlush after every writesPerCycle-th write.
func (g *generator) ops(n int) []op {
	ops := make([]op, 0, n+n/cycleOps+1)
	writes := 0
	for i := 0; i < n; i++ {
		switch pos := i % churnBlock; {
		case g.w.churn && pos == churnBlock/2:
			ops = append(ops, g.befriend())
			writes++
		case g.w.churn && pos%(churnBlock/tagsPerBlock) == churnBlock/(2*tagsPerBlock):
			ops = append(ops, g.tag())
			writes++
		case g.w.batch:
			ops = append(ops, g.batch())
			continue
		default:
			ops = append(ops, g.read())
			continue
		}
		if writes%writesPerCycle == 0 {
			ops = append(ops, op{kind: opFlush})
		}
	}
	return ops
}

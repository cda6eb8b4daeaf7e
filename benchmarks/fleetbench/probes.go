package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/overlay"
	"repro/internal/planner"
	"repro/internal/proximity"
	"repro/internal/qcache"
	"repro/internal/quorum"
	"repro/internal/server"
	"repro/internal/social"
	"repro/internal/tagstore"
	"repro/internal/topk"
	"repro/internal/wal"
)

// Sizes of the fixed probes. They run in every traced run, whatever
// the workload, so that every layer has a measured cost in every
// ledger; only their seekers come from the workload's sample.
const (
	probeSeekers   = 150   // distinct sample seekers the engine probes expand
	probeWrites    = 32    // writes per write-path probe
	probeLoops     = 20000 // calls per nanosecond-scale probe
	probeObsOps    = 600   // read_hot ops per turn of the tracing-overhead probe
	probeObsRounds = 7     // turns per side
	probeCacheCap  = 64    // standalone qcache capacity: under probeSeekers, so Put evicts
)

// perLayerMetrics is the ledger, in the order it is printed.
// BENCHMARK.json carries the same names; a test keeps the two in step.
var perLayerMetrics = []metricDef{
	// set-up
	{"gen.generate_s", "s"}, {"social.restore_s", "s"}, {"fleet.boot_s", "s"}, {"client.warm_s", "s"},
	// the traced closed-loop phase
	{"trace.throughput_ops_s", "1/s"}, {"trace.read_p50_ms", "ms"}, {"trace.read_tail_ms", "ms"}, {"trace.read_tail_pct", "%"},
	{"qcache.hit_ratio", "share"}, {"qcache.evictions", "count"}, {"social.compactions", "count"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_pause_total_ms", "ms"}, {"runtime.gc_cpu_share", "share"},
	// single-query ladder
	{"client.read_us", "us"}, {"client.http_self_us", "us"}, {"server.frontend_self_us", "us"},
	{"fleet.frontend_self_us", "us"}, {"fleet.client_do_us", "us"}, {"fleet.hop_self_us", "us"},
	{"server.replica_serve_us", "us"}, {"server.wire_self_us", "us"}, {"social.do_us", "us"},
	{"ledger.residual_share", "share"},
	// batch ladder
	{"client.batch_us", "us"}, {"client.batch_http_self_us", "us"}, {"server.batch_frontend_self_us", "us"},
	{"fleet.batch_fanout_us", "us"}, {"fleet.batch_parts", "count"}, {"fleet.batch_slowest_share", "share"},
	{"fleet.batch_hop_self_us", "us"}, {"server.batch_self_us", "us"}, {"social.do_batch_us", "us"},
	// routing and engine
	{"fleet.route_ns", "ns"}, {"shard.ring_lookup_ns", "ns"}, {"search.normalize_ns", "ns"},
	{"social.do_hit_us", "us"}, {"social.do_miss_us", "us"},
	{"qcache.lookup_ns", "ns"}, {"qcache.put_us", "us"},
	{"core.merge_us", "us"}, {"core.materialize_us", "us"}, {"core.horizon_users", "count"},
	{"proximity.expand_us", "us"}, {"proximity.visited_users", "count"},
	{"topk.update_ns", "ns"}, {"planner.choose_ns", "ns"},
	// write path
	{"client.write_us", "us"}, {"fleet.frontend_write_us", "us"}, {"fleet.replog_append_us", "us"},
	{"wal.append_sync_us", "us"}, {"wal.append_nosync_us", "us"}, {"fleet.write_fanout_us", "us"},
	{"fleet.rpc_write_us", "us"}, {"social.write_us", "us"}, {"fleet.broadcast_flush_us", "us"},
	{"qcache.invalidate_edges_us", "us"}, {"qcache.invalidated_per_befriend", "count"},
	// compaction
	{"social.compact_ms", "ms"}, {"overlay.compact_ms", "ms"}, {"graph.build_ms", "ms"}, {"tagstore.build_ms", "ms"},
	// on no workload's path yet
	{"quorum.append_commit_us", "us"}, {"quorum.msgs_per_commit", "count"}, {"durable.write_us", "us"},
	{"admission.acquire_ns", "ns"}, {"obs.trace_overhead_share", "share"},
}

// medianUS is the median of a probe's calls in µs.
func medianUS(ds []time.Duration) float64 { return median(durs(ds, us)) }

// perCallNS times n back-to-back calls too short to time one by one
// and returns the mean in ns.
func perCallNS(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// probes measures every layer the ladders do not reach. phaseFlushes
// are the heartbeat times (ms) the closed-loop phase saw, if any.
func (l *ledger) probes(sample []query, phaseFlushes []float64) error {
	tmp, err := os.MkdirTemp("", "fleetbench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	seekers := distinctSeekers(sample, probeSeekers)
	for _, probe := range []func(tmp string, sample, seekers []query) error{
		l.routingProbes, l.engineProbes, l.writeProbes, l.compactionProbes, l.quorumProbe, l.sidecarProbes,
	} {
		if err := probe(tmp, sample, seekers); err != nil {
			return err
		}
	}
	if len(phaseFlushes) > 0 {
		// The phase's own heartbeats are the better sample of the same
		// quantity.
		l.set("fleet.broadcast_flush_us", 1000*median(phaseFlushes))
	}
	return nil
}

// distinctSeekers returns the first n queries of qs with distinct
// seekers.
func distinctSeekers(qs []query, n int) []query {
	seen := make(map[string]bool)
	var out []query
	for _, q := range qs {
		if !seen[q.seeker] && len(out) < n {
			seen[q.seeker] = true
			out = append(out, q)
		}
	}
	return out
}

func (l *ledger) routingProbes(_ string, sample, _ []query) error {
	pool := l.b.st.pool
	ring := pool.Ring()
	sink := 0
	l.set("fleet.route_ns", perCallNS(probeLoops, func(i int) { sink += pool.ReplicaFor(sample[i%len(sample)].seeker) }))
	l.set("shard.ring_lookup_ns", perCallNS(probeLoops, func(i int) { sink += ring.OwnerString(sample[i%len(sample)].seeker) }))
	var nerr error
	l.set("search.normalize_ns", perCallNS(probeLoops, func(i int) {
		req := sample[i%len(sample)].request()
		if err := req.Normalize(); err != nil {
			nerr = err
		}
	}))
	if sink < 0 {
		return fmt.Errorf("routing probe: negative replica index")
	}
	return nerr
}

// engineProbes calls the engine's layers below social.Service on a
// core.Engine of its own over the shared immutable corpus.
func (l *ledger) engineProbes(_ string, sample, seekers []query) error {
	c := l.b.corpus
	cfg := social.DefaultServiceConfig()
	eng, err := core.NewEngine(c.ds.Graph, c.ds.Store, core.Config{Proximity: cfg.Proximity, Beta: cfg.Beta})
	if err != nil {
		return err
	}

	visited := 0
	expand := timeEach(len(seekers), func(i int) {
		it, ierr := proximity.AcquireIterator(c.ds.Graph, seekers[i].seekerID, cfg.Proximity)
		if ierr != nil {
			err = ierr
			return
		}
		for {
			if _, ok := it.Next(); !ok {
				break
			}
		}
		visited += it.Expanded()
		it.Release()
	})
	if err != nil {
		return err
	}
	l.set("proximity.expand_us", medianUS(expand))
	l.set("proximity.visited_users", float64(visited)/float64(len(seekers)))

	horizons := make([]*core.SeekerHorizon, len(seekers))
	users := 0
	materialize := timeEach(len(seekers), func(i int) {
		h, herr := eng.MaterializeHorizon(seekers[i].seekerID, 0)
		if herr != nil {
			err = herr
			return
		}
		horizons[i] = h
		users += h.Size()
	})
	if err != nil {
		return err
	}
	l.set("core.materialize_us", medianUS(materialize))
	l.set("core.horizon_users", float64(users)/float64(len(seekers)))

	var ans core.Answer
	merge := timeEach(len(seekers), func(i int) {
		if merr := eng.SocialMergeWithHorizonInto(seekers[i].coreQuery(), horizons[i], core.Options{RefineScores: true}, &ans); merr != nil {
			err = merr
		}
	})
	if err != nil {
		return err
	}
	l.set("core.merge_us", medianUS(merge))

	cache, err := qcache.New(probeCacheCap)
	if err != nil {
		return err
	}
	gen := cache.Generation()
	l.set("qcache.put_us", medianUS(timeEach(len(seekers), func(i int) { cache.Put(seekers[i].seekerID, gen, horizons[i]) })))
	resident := seekers[len(seekers)-min(len(seekers), probeCacheCap):]
	hits := 0
	l.set("qcache.lookup_ns", perCallNS(probeLoops, func(i int) {
		if _, ok := cache.Lookup(resident[i%len(resident)].seekerID, gen, 0); ok {
			hits++
		}
	}))
	if hits != probeLoops {
		return fmt.Errorf("qcache probe: %d of %d lookups hit", hits, probeLoops)
	}

	// One random friendship at a time against a cache refilled with the
	// sample's horizons: how long scoped invalidation takes and how many
	// cached horizons one new edge drops.
	full, err := qcache.New(len(seekers))
	if err != nil {
		return err
	}
	for i, q := range seekers {
		full.Put(q.seekerID, full.Generation(), horizons[i])
	}
	rng := rand.New(rand.NewSource(l.cfg.seed))
	dropped := 0
	nUsers := c.ds.Graph.NumUsers()
	l.set("qcache.invalidate_edges_us", medianUS(timeEach(probeWrites, func(int) {
		dropped += full.InvalidateEdge(graph.UserID(rng.Intn(nUsers)), graph.UserID(rng.Intn(nUsers)))
	})))
	l.set("qcache.invalidated_per_befriend", float64(dropped)/probeWrites)

	p, err := planner.New(eng)
	if err != nil {
		return err
	}
	l.set("planner.choose_ns", perCallNS(probeLoops/10, func(i int) { p.Plan(sample[i%len(sample)].coreQuery()) }))

	table := topk.NewTable()
	nItems := c.ds.Store.NumItems()
	table.Reset(nItems, queryK)
	l.set("topk.update_ns", perCallNS(probeLoops, func(int) {
		idx, _ := table.Ensure(int32(rng.Intn(nItems)))
		table.At(idx).Lower += rng.Float64()
		table.Promote(idx)
	}))

	// A cached service of its own, roomy enough that no shard evicts:
	// the first query of a seeker misses, the second hits.
	svc, err := c.newService(4*len(seekers), replicaCompactEvery)
	if err != nil {
		return err
	}
	ctx := context.Background()
	for _, m := range []string{"social.do_miss_us", "social.do_hit_us"} {
		l.set(m, medianUS(timeEach(len(seekers), func(i int) {
			if _, derr := svc.Do(ctx, seekers[i].request()); derr != nil {
				err = derr
			}
		})))
	}
	return err
}

// writeProbes times the write path layer by layer: through the live
// front-end, then each inner step on scratch copies so that the live
// fleet's LSN order is never disturbed.
func (l *ledger) writeProbes(tmp string, _, _ []query) error {
	st, g, ctx := l.b.st, l.b.gen, context.Background()
	var err error
	note := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	type triple struct{ u, i, t string }
	draw := func() triple {
		u, i, t := g.tagIDs()
		return triple{userName(u), fmt.Sprintf("i%d", i), tagName(t)}
	}

	ok := true
	var buf bytes.Buffer
	l.set("client.write_us", medianUS(timeEach(probeWrites, func(int) {
		ok = post(l.b.hc, st.frontURL+opTag.path(), g.tag().body, &buf) && ok
	})))
	if !ok {
		return fmt.Errorf("write probe: a front-end write failed")
	}
	frontWrite := medianUS(timeEach(probeWrites, func(int) { w := draw(); note(st.front.Tag(w.u, w.i, w.t)) }))
	l.set("fleet.frontend_write_us", frontWrite)
	// The heartbeat that folds those 2×probeWrites writes: three
	// replicas compact at once.
	t0 := time.Now()
	st.flush(ctx)
	l.set("fleet.broadcast_flush_us", us(time.Since(t0)))

	rl, rerr := fleet.OpenRepLog(tmp + "/replog")
	if rerr != nil {
		return rerr
	}
	appendUS := medianUS(timeEach(probeWrites, func(int) { w := draw(); _, e := rl.AppendTag(w.u, w.i, w.t); note(e) }))
	note(rl.Close())
	l.set("fleet.replog_append_us", appendUS)
	l.set("fleet.write_fanout_us", frontWrite-appendUS)

	for _, p := range []struct {
		metric string
		dir    string
		sync   wal.SyncPolicy
		n      int
	}{
		{"wal.append_sync_us", "/wal-sync", wal.SyncAlways, probeWrites},
		{"wal.append_nosync_us", "/wal-nosync", wal.SyncManual, 8 * probeWrites},
	} {
		lg, werr := wal.Open(tmp+p.dir, wal.Options{Sync: p.sync})
		if werr != nil {
			return werr
		}
		l.set(p.metric, medianUS(timeEach(p.n, func(int) {
			w := draw()
			_, e := lg.Append(durable.RecTag, durable.EncodeTag(w.u, w.i, w.t))
			note(e)
		})))
		note(lg.Close())
	}

	// One scratch replica behind its own server and client.
	svc, serr := l.b.corpus.newService(0, replicaCompactEvery)
	if serr != nil {
		return serr
	}
	srv, serr := server.New(svc)
	if serr != nil {
		return serr
	}
	srv.SetLogf(discardf)
	n, serr := serve(srv)
	if serr != nil {
		return serr
	}
	defer n.close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl, serr := fleet.NewClient(n.url, fleet.ClientConfig{Transport: tr})
	if serr != nil {
		return serr
	}
	lsn := uint64(0)
	l.set("fleet.rpc_write_us", medianUS(timeEach(probeWrites, func(int) {
		w := draw()
		lsn++
		_, e := cl.Tag(ctx, w.u, w.i, w.t, lsn)
		note(e)
	})))
	l.set("social.write_us", medianUS(timeEach(probeWrites, func(int) {
		w := draw()
		lsn++
		note(svc.TagAt(lsn, w.u, w.i, w.t))
	})))
	t0 = time.Now()
	note(svc.Flush())
	l.set("social.compact_ms", ms(time.Since(t0)))
	return err
}

// compactionProbes times what one compaction is made of.
func (l *ledger) compactionProbes(_ string, _, _ []query) error {
	ds, g := l.b.corpus.ds, l.b.gen
	o, err := overlay.New(ds.Graph, ds.Store)
	if err != nil {
		return err
	}
	for i := 0; i < writesPerCycle; i++ {
		u, it, t := g.tagIDs()
		if err := o.Tag(graph.UserID(u), tagstore.ItemID(it), tagstore.TagID(t)); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := o.Compact(); err != nil {
		return err
	}
	l.set("overlay.compact_ms", ms(time.Since(t0)))

	t0 = time.Now()
	gb := graph.NewBuilder(ds.Graph.NumUsers())
	for _, e := range ds.Graph.Edges() {
		gb.AddEdge(e.U, e.V, e.Weight)
	}
	if _, err := gb.Build(); err != nil {
		return err
	}
	l.set("graph.build_ms", ms(time.Since(t0)))

	t0 = time.Now()
	tb := tagstore.NewBuilder(ds.Graph.NumUsers(), ds.Store.NumItems(), ds.Store.NumTags())
	for _, tr := range ds.Store.Triples() {
		tb.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
	}
	if _, err := tb.Build(); err != nil {
		return err
	}
	l.set("tagstore.build_ms", ms(time.Since(t0)))
	return nil
}

// lateHandler lets a listener exist before its handler does: quorum
// peers must know each other's URLs before any node is opened.
type lateHandler struct {
	h    atomic.Pointer[http.Handler]
	msgs atomic.Int64
}

func (lh *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lh.msgs.Add(1)
	if h := lh.h.Load(); h != nil {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not started", http.StatusServiceUnavailable)
}

// quorumProbe commits through a three-node in-process quorum and counts
// the consensus messages each commit costs.
func (l *ledger) quorumProbe(tmp string, _, _ []query) error {
	const members = 3
	handlers := make([]*lateHandler, members)
	peers := make(map[string]string, members)
	ids := make([]string, members)
	for i := range handlers {
		handlers[i] = &lateHandler{}
		n, err := serve(handlers[i])
		if err != nil {
			return err
		}
		defer n.close()
		ids[i] = fmt.Sprintf("fe%d", i)
		peers[ids[i]] = n.url
	}
	nodes := make([]*quorum.Node, members)
	for i, id := range ids {
		n, err := quorum.Open(quorum.Config{ID: id, Peers: peers, Dir: fmt.Sprintf("%s/quorum-%d", tmp, i)})
		if err != nil {
			return err
		}
		defer n.Close()
		h := n.Handler()
		handlers[i].h.Store(&h)
		nodes[i] = n
	}
	for _, n := range nodes {
		n.Start()
	}
	// An election needs timers; this is a probe, not set-up, so waiting
	// for a leader is allowed to poll.
	var leader *quorum.Node
	for deadline := time.Now().Add(10 * time.Second); leader == nil; {
		if time.Now().After(deadline) {
			return fmt.Errorf("quorum probe: no leader within 10s")
		}
		time.Sleep(5 * time.Millisecond)
		for _, n := range nodes {
			if n.IsLeader() {
				leader = n
			}
		}
	}
	ctx := context.Background()
	payload := durable.EncodeTag("u1", "i1", "t1")
	// The takeover record must commit before client appends do.
	if _, err := leader.Append(ctx, durable.RecTag, payload); err != nil {
		return fmt.Errorf("quorum probe: first append: %w", err)
	}
	count := func() (n int64) {
		for _, h := range handlers {
			n += h.msgs.Load()
		}
		return n
	}
	before := count()
	var err error
	l.set("quorum.append_commit_us", medianUS(timeEach(probeWrites, func(int) {
		if _, aerr := leader.Append(ctx, durable.RecTag, payload); aerr != nil {
			err = aerr
		}
	})))
	l.set("quorum.msgs_per_commit", float64(count()-before)/probeWrites)
	return err
}

// sidecarProbes covers the layers beside the serving path: the durable
// single-node service, admission control, and the obs tracer.
func (l *ledger) sidecarProbes(tmp string, _, _ []query) error {
	var err error
	dsvc, derr := durable.Open(tmp+"/durable", durable.DefaultConfig())
	if derr != nil {
		return derr
	}
	l.set("durable.write_us", medianUS(timeEach(probeWrites, func(i int) {
		if terr := dsvc.Tag(userName(i), fmt.Sprintf("i%d", i), tagName(i)); terr != nil {
			err = terr
		}
	})))
	if cerr := dsvc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	ctrl := admission.New(admission.Config{})
	ctx := context.Background()
	l.set("admission.acquire_ns", perCallNS(probeLoops, func(int) {
		tk, aerr := ctrl.Acquire(ctx, admission.Read)
		if aerr != nil {
			err = aerr
		}
		tk.Release(nil)
	}))
	if err != nil {
		return err
	}

	// The same hot reads against two fresh fleets, one with the obs
	// tracer recording every request on all four servers. The two take
	// turns, probeObsRounds times, and the overhead is the median of the
	// rounds' ratios: a drift of the machine between the turns of one
	// round is small, and a round that caught one anyway is outvoted.
	hot, _ := findWorkload("read_hot")
	var sides [2]*bench
	for side, traceEvery := range []int{0, 1} {
		dir, merr := os.MkdirTemp(tmp, "obs-replog-")
		if merr != nil {
			return merr
		}
		st, _, serr := newStack(l.b.corpus, dir, traceEvery)
		if serr != nil {
			return serr
		}
		b := &bench{st: st, hc: newLoadClient(), gen: newGenerator(l.b.corpus, hot, l.cfg.seed)}
		defer b.close()
		runLoop(st, b.hc, b.gen.warmup(), false, time.Time{}, nil)
		sides[side] = b
	}
	ratios := make([]float64, probeObsRounds)
	for r := range ratios {
		var wall [2]float64
		for side, b := range sides {
			res := runLoop(b.st, b.hc, b.gen.ops(probeObsOps), false, time.Time{}, nil)
			if i := res.firstFailure(); i >= 0 {
				return fmt.Errorf("obs probe: request %d failed", i)
			}
			wall[side] = res.wall().Seconds()
		}
		ratios[r] = wall[0] / wall[1] // traced throughput over untraced
	}
	l.set("obs.trace_overhead_share", 1-median(ratios))
	return nil
}

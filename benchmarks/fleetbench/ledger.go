package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/search"
)

// Sizes of the traced run. The closed-loop phase drains the first half
// of the untraced op list; the ladders replay the first ledgerSingles
// queries and ledgerBatches batches of that list at every layer
// boundary.
const (
	ledgerSingles = 600
	ledgerBatches = 12
	// Requests per chunk of a ladder (see climb).
	singleChunk = 50
	batchChunk  = 2
)

// ledger accumulates the traced run's values and spans.
type ledger struct {
	b      *bench
	cfg    config
	values map[string]float64
	epoch  time.Time
	spans  []span
}

func (l *ledger) set(name string, v float64) { l.values[name] = v }

// rung is one boundary of a ladder: a public entry point of a layer,
// called directly by the benchmark. Rungs are listed outermost first;
// each one's call tree contains the next.
type rung struct {
	span string // span name; the parent is the previous rung's
	self string // metric that receives this rung's self time
	// call replays sample request i; walker (0..loadClients-1) picks
	// the caller's own reply buffers.
	call func(walker, i int) bool
}

// selfTimes turns the medians of nested boundaries (outermost first)
// into self times: each boundary's median minus the next inner one's;
// the innermost keeps its whole median. They sum to the outermost
// median.
func selfTimes(medians []float64) []float64 {
	self := make([]float64, len(medians))
	for i, m := range medians {
		self[i] = m
		if i+1 < len(medians) {
			self[i] -= medians[i+1]
		}
	}
	return self
}

// climb replays requests 0..n-1 at every rung and returns the per-rung
// medians in µs. The sample goes chunk by chunk, each chunk at every
// rung in turn before the next chunk starts, so all rungs are timed
// within a fraction of a second of each other and the machine's drift
// cancels in their differences. Each replay is drained by loadClients
// walkers, like the workload itself, so every rung is timed under the
// contention the closed-loop phase ran under. No reference-kernel burst
// runs inside a ladder: a burst leaves the caches cold, which the first
// rung after it would pay for.
//
// A workload whose seekers miss the cache must miss at every rung, not
// only at the first one to ask: before each replay of a cold workload
// every replica's cache is invalidated (an O(1) generation bump), which
// makes its ladder the ladder of a miss.
func (l *ledger) climb(rungs []rung, n, chunk int) ([]float64, error) {
	lat := make([][]time.Duration, len(rungs))
	for r := range lat {
		lat[r] = make([]time.Duration, n)
	}
	spans := make([]span, len(rungs)*n)
	var failed atomic.Int64
	failed.Store(-1)
	for from := 0; from < n; from += chunk {
		to := min(from+chunk, n)
		for r, rg := range rungs {
			parent := ""
			if r > 0 {
				parent = rungs[r-1].span
			}
			if !l.cfg.w.hot {
				for _, svc := range l.b.st.svcs {
					if _, err := svc.ApplyInvalidation(nil, true); err != nil {
						return nil, err
					}
				}
			}
			var cursor atomic.Int64
			cursor.Store(int64(from))
			var wg sync.WaitGroup
			for w := 0; w < loadClients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(cursor.Add(1)) - 1
						if i >= to {
							return
						}
						t0 := time.Now()
						ok := rg.call(w, i)
						t1 := time.Now()
						lat[r][i] = t1.Sub(t0)
						spans[r*n+i] = span{
							Name: rg.span, Parent: parent, Request: i,
							Start: int64(t0.Sub(l.epoch)), End: int64(t1.Sub(l.epoch)),
						}
						if !ok {
							failed.Store(int64(r*n + i))
						}
					}
				}()
			}
			wg.Wait()
		}
	}
	if f := failed.Load(); f >= 0 {
		return nil, fmt.Errorf("ledger: %s failed on sample request %d", rungs[int(f)/n].span, int(f)%n)
	}
	l.spans = append(l.spans, spans...)
	medians := make([]float64, len(rungs))
	for r := range rungs {
		medians[r] = median(durs(lat[r], us))
	}
	for r, s := range selfTimes(medians) {
		l.set(rungs[r].self, s)
	}
	return medians, nil
}

// recorder is the http.ResponseWriter the ladders hand to a server
// called without a network.
type recorder struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func (r *recorder) Header() http.Header         { return r.header }
func (r *recorder) Write(b []byte) (int, error) { return r.body.Write(b) }
func (r *recorder) WriteHeader(status int)      { r.status = status }

// serveLocal calls a server's handler in-process and reports a 2xx.
func serveLocal(rec *recorder, h http.Handler, path string, body []byte) bool {
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	rec.header, rec.status = http.Header{}, http.StatusOK
	rec.body.Reset()
	h.ServeHTTP(rec, req)
	return rec.status/100 == 2
}

// walkerIO is one walker's reply buffers.
type walkerIO struct {
	buf bytes.Buffer
	rec recorder
}

// singleLadder splits one /v2/search round trip into its layers.
func (l *ledger) singleLadder(qs []query) (outer float64, err error) {
	st, ctx := l.b.st, context.Background()
	bodies := make([][]byte, len(qs))
	reqs := make([]search.Request, len(qs))
	owner := make([]int, len(qs))
	for i, q := range qs {
		bodies[i] = q.appendJSON(nil)
		reqs[i] = q.request()
		owner[i] = st.pool.ReplicaFor(q.seeker)
	}
	var io [loadClients]walkerIO
	url, path := st.frontURL+opRead.path(), opRead.path()
	medians, err := l.climb([]rung{
		{"client.post", "client.http_self_us", func(w, i int) bool { return post(l.b.hc, url, bodies[i], &io[w].buf) }},
		{"server.frontend", "server.frontend_self_us", func(w, i int) bool { return serveLocal(&io[w].rec, st.frontSrv, path, bodies[i]) }},
		{"fleet.frontend", "fleet.frontend_self_us", func(_, i int) bool { _, err := st.front.Do(ctx, reqs[i]); return err == nil }},
		{"fleet.client", "fleet.hop_self_us", func(_, i int) bool { _, err := st.clients[owner[i]].Do(ctx, reqs[i]); return err == nil }},
		{"server.replica", "server.wire_self_us", func(w, i int) bool {
			return serveLocal(&io[w].rec, st.replicaSrvs[owner[i]], path, bodies[i])
		}},
		{"social.do", "social.do_us", func(_, i int) bool { _, err := st.svcs[owner[i]].Do(ctx, reqs[i]); return err == nil }},
	}, len(qs), singleChunk)
	if err != nil {
		return 0, err
	}
	l.set("client.read_us", medians[0])
	l.set("fleet.client_do_us", medians[3])
	l.set("server.replica_serve_us", medians[4])
	return medians[0], nil
}

// batchPart is the share of one batch that one replica owns.
type batchPart struct {
	replica int
	reqs    []search.Request
	body    []byte
}

// batchLadder splits one /v2/search/batch round trip. Below the
// front-end a batch is up to numReplicas parts that run in parallel,
// so the three inner rungs replay a batch's parts one after another
// and the ladder is built on the slowest part's share of that time:
// the slowest part sets the batch's time.
func (l *ledger) batchLadder(batches [][]query) (outer float64, err error) {
	st, ctx := l.b.st, context.Background()
	bodies := make([][]byte, len(batches))
	reqs := make([][]search.Request, len(batches))
	parts := make([][]batchPart, len(batches))
	nParts := 0
	for i, qs := range batches {
		byReplica := make([][]query, numReplicas)
		for _, q := range qs {
			reqs[i] = append(reqs[i], q.request())
			r := st.pool.ReplicaFor(q.seeker)
			byReplica[r] = append(byReplica[r], q)
		}
		bodies[i] = batchBody(qs)
		for r, pq := range byReplica {
			if len(pq) == 0 {
				continue
			}
			p := batchPart{replica: r, body: batchBody(pq)}
			for _, q := range pq {
				p.reqs = append(p.reqs, q.request())
			}
			parts[i] = append(parts[i], p)
		}
		nParts += len(parts[i])
	}
	l.set("fleet.batch_parts", float64(nParts)/float64(len(batches)))

	allOK := func(res []search.BatchResult) bool {
		for _, r := range res {
			if r.Err != nil {
				return false
			}
		}
		return true
	}
	// slowShare[rung][i] is the slowest part's share of batch i's
	// sequential replay at that rung.
	const innerRungs = 3
	var slowShare [innerRungs][]float64
	perPart := func(rung int, fn func(w int, p batchPart) bool) func(w, i int) bool {
		slowShare[rung] = make([]float64, len(batches))
		return func(w, i int) bool {
			ok := true
			var worst, total time.Duration
			for _, p := range parts[i] {
				t0 := time.Now()
				ok = fn(w, p) && ok
				d := time.Since(t0)
				total += d
				worst = max(worst, d)
			}
			slowShare[rung][i] = float64(worst) / float64(total)
			return ok
		}
	}
	var io [loadClients]walkerIO
	url, path := st.frontURL+opBatch.path(), opBatch.path()
	medians, err := l.climb([]rung{
		{"client.post_batch", "client.batch_http_self_us", func(w, i int) bool { return post(l.b.hc, url, bodies[i], &io[w].buf) }},
		{"server.frontend_batch", "server.batch_frontend_self_us", func(w, i int) bool {
			return serveLocal(&io[w].rec, st.frontSrv, path, bodies[i])
		}},
		{"fleet.frontend_batch", "fleet.batch_fanout_us", func(_, i int) bool { return allOK(st.front.DoBatch(ctx, reqs[i])) }},
		{"fleet.client_parts", "fleet.batch_hop_self_us", perPart(0, func(_ int, p batchPart) bool {
			return allOK(st.clients[p.replica].DoBatch(ctx, p.reqs))
		})},
		{"server.replica_parts", "server.batch_self_us", perPart(1, func(w int, p batchPart) bool {
			return serveLocal(&io[w].rec, st.replicaSrvs[p.replica], path, p.body)
		})},
		{"social.do_batch_parts", "social.do_batch_us", perPart(2, func(_ int, p batchPart) bool {
			return allOK(st.svcs[p.replica].DoBatch(ctx, p.reqs))
		})},
	}, len(batches), batchChunk)
	if err != nil {
		return 0, err
	}
	// climb timed the inner rungs as sequential replays of all parts;
	// scale each down to its slowest part and redo the subtraction.
	for r := 0; r < innerRungs; r++ {
		medians[3+r] *= median(slowShare[r])
	}
	self := selfTimes(medians)
	for r, name := range []string{
		"client.batch_http_self_us", "server.batch_frontend_self_us", "fleet.batch_fanout_us",
		"fleet.batch_hop_self_us", "server.batch_self_us", "social.do_batch_us",
	} {
		l.set(name, self[r])
	}
	l.set("client.batch_us", medians[0])
	l.set("fleet.batch_slowest_share", medians[3]/medians[2])
	return medians[0], nil
}

// runLedger is the traced run: one set-up, the workload's closed-loop
// phase with a span per op, then the ladders and the fixed probes (see
// probes.go). It reports the per-layer metrics and writes the spans to
// <workload>.trace.json in the temp directory.
func runLedger(cfg config) (result, error) {
	b, ts, err := setUp(cfg, newCalibration())
	if err != nil {
		return result{}, err
	}
	defer b.close()
	l := &ledger{b: b, cfg: cfg, values: map[string]float64{}, epoch: time.Now()}
	l.set("gen.generate_s", ts.generate.Seconds())
	l.set("social.restore_s", ts.restore.Seconds())
	l.set("fleet.boot_s", ts.boot.Seconds())
	l.set("client.warm_s", ts.warm.Seconds())

	ops := b.gen.ops(cfg.opCount())
	if cfg.ops == 0 {
		ops = firstHalf(cfg.w, ops)
	}

	// Phase: the workload itself, traced from the client's side.
	hits0, misses0, evict0 := b.st.cacheCounters()
	compact0 := b.st.compactions()
	res := runLoop(b.st, b.hc, ops, !cfg.w.churn, l.epoch, b.cal)
	hits1, misses1, evict1 := b.st.cacheCounters()
	compactions := b.st.compactions() - compact0
	wrong, probeAsked, probeWrong, err := verify(b, cfg.w, ops, res)
	if err != nil {
		return result{}, err
	}
	t := tallyLoop(cfg.w, ops, res, wrong, b.cal.scale(0, len(b.cal.bursts)))
	l.spans = append(l.spans, res.spans...)
	l.set("trace.throughput_ops_s", float64(t.attempted-t.failed)/res.wall().Seconds())
	reads := sorted(t.reads)
	phaseP50 := quantile(reads, 0.5)
	l.set("trace.read_p50_ms", phaseP50)
	// The highest percentile with at least minBeyond samples beyond it,
	// and which one that is.
	tail := highestTail(len(reads))
	l.set("trace.read_tail_ms", quantile(reads, tail))
	l.set("trace.read_tail_pct", 100*tail)
	l.set("qcache.hit_ratio", float64(hits1-hits0)/float64(hits1-hits0+misses1-misses0))
	l.set("qcache.evictions", float64(evict1-evict0))
	l.set("social.compactions", float64(compactions))
	l.set("runtime.gc_cycles", res.delta(func(u usage) float64 { return float64(u.gcCycles) }))
	l.set("runtime.gc_pause_total_ms", res.delta(func(u usage) float64 { return ms(u.gcPause) }))
	// The runtime refreshes its CPU classes at the end of a GC cycle; a
	// phase too short to see one has no share to report.
	if total := res.delta(func(u usage) float64 { return u.totalCPU }); total > 0 {
		l.set("runtime.gc_cpu_share", res.delta(func(u usage) float64 { return u.gcCPU })/total)
	}

	// Ladders: the phase's first reads, replayed at every boundary.
	singles, batches := ladderSample(ops)
	singleOuter, err := l.singleLadder(singles)
	if err != nil {
		return result{}, err
	}
	batchOuter, err := l.batchLadder(batches)
	if err != nil {
		return result{}, err
	}
	// The ladder's self times sum to its outermost median by
	// construction. The residual holds that sum against the p50 the
	// closed-loop phase measured: what separates them is the ladder's
	// smaller sample, the inner rungs run between its round trips, and —
	// on a cold workload — the few hits the phase had and the ladder
	// has not.
	outerMS := singleOuter / 1000
	if cfg.w.batch {
		outerMS = batchOuter / 1000
	}
	l.set("ledger.residual_share", math.Abs(phaseP50-outerMS)/phaseP50)

	if err := l.probes(singles, t.flushes); err != nil {
		return result{}, err
	}
	path, err := l.writeTrace()
	if err != nil {
		return result{}, err
	}

	scale := b.cal.scale(0, len(b.cal.bursts))
	out := cfg.out
	fmt.Fprintf(out, "reference kernel: %d bursts; times below are wall times × %.4f (reference time)\n", len(b.cal.bursts), scale)
	fmt.Fprintf(out, "traced phase: %d ops in %.3f s by %d closed-loop clients; ladders on %d queries and %d batches; %d spans in %s\n",
		len(ops), res.wall().Seconds(), loadClients, len(singles), len(batches), len(l.spans), path)
	printCounts(out, t, res, wrong, probeAsked, probeWrong)
	return result{
		Correct:   t.failed == 0 && probeWrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   report(out, perLayerMetrics, l.values, scale),
	}, nil
}

// firstHalf keeps the first half of an op list — for mixed_churn the
// first half of its heartbeat cycles, at least one.
func firstHalf(w workload, ops []op) []op {
	if !w.churn {
		return ops[:len(ops)/2]
	}
	flushes := 0
	for _, o := range ops {
		if o.kind == opFlush {
			flushes++
		}
	}
	keep, seen := (flushes+1)/2, 0
	for i, o := range ops {
		if o.kind == opFlush {
			if seen++; seen == keep {
				return ops[:i+1]
			}
		}
	}
	return ops
}

// ladderSample takes the first ledgerSingles read queries of ops, and
// the first ledgerBatches batches of batchSize — the workload's own
// batches, or for a single-query workload its queries in chunks.
func ladderSample(ops []op) (singles []query, batches [][]query) {
	var all []query
	for _, o := range ops {
		if o.kind.isRead() {
			all = append(all, o.queries...)
		}
		if len(all) >= ledgerSingles && len(all) >= ledgerBatches*batchSize {
			break
		}
	}
	singles = all[:min(len(all), ledgerSingles)]
	for i := 0; i+batchSize <= len(all) && len(batches) < ledgerBatches; i += batchSize {
		batches = append(batches, all[i:i+batchSize])
	}
	return singles, batches
}

// writeTrace writes the spans, kept in memory until now, as JSON.
func (l *ledger) writeTrace() (string, error) {
	path := filepath.Join(os.TempDir(), l.cfg.w.name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{l.cfg.w.name, l.cfg.seed, l.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/fleet"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/social"
	"repro/internal/vocab"
)

// Sizes of the system under test. They are constants, not flags: two
// commits are only comparable when both ran the same corpus against
// the same fleet shape.
const (
	// corpusScale 5 is the ROADMAP's first tier: 10,000 users, 40,000
	// items, 6,000 tags, ~1.1M tagging triples.
	corpusScale = 5
	// corpusSeed is fixed: --seed moves the requests, never the data,
	// so every seed measures the same graph.
	corpusSeed  = 42
	numReplicas = 3
	// replicaCompactEvery mirrors cmd/friendserve's -replica posture:
	// replicas never compact on a write count, only when the front-end's
	// invalidation broadcast tells them to.
	replicaCompactEvery = 1 << 30
	// heartbeatNever parks the broadcaster's coalescing timer. The
	// production window (25 ms) makes the number of fleet compactions a
	// function of wall-clock time; the benchmark drives the broadcast
	// from fixed positions of the op list instead (see opFlush), so
	// every run compacts the same number of times.
	heartbeatNever = 24 * time.Hour
)

// corpus is the generated dataset plus the names the services address
// it by. The graph and store are immutable and shared by every service
// built from the corpus; the name dictionaries are cloned per service
// because writes grow them.
type corpus struct {
	ds    *gen.Dataset
	names *vocab.Set
}

func buildCorpus() (*corpus, error) {
	ds, err := gen.Generate(gen.DeliciousParams().Scale(corpusScale), corpusSeed)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	names := vocab.NewSet()
	for u := 0; u < ds.Graph.NumUsers(); u++ {
		names.Users.MustAdd(userName(u))
	}
	for i := 0; i < ds.Store.NumItems(); i++ {
		names.Items.MustAdd(fmt.Sprintf("i%d", i))
	}
	for t := 0; t < ds.Store.NumTags(); t++ {
		names.Tags.MustAdd(tagName(t))
	}
	return &corpus{ds: ds, names: names}, nil
}

func userName(u int) string { return fmt.Sprintf("u%d", u) }
func tagName(t int) string  { return fmt.Sprintf("t%d", t) }

// newService restores one service over the corpus. cacheSize follows
// social.ServiceConfig.SeekerCacheSize (0 = the 256-entry default,
// negative = no cache).
func (c *corpus) newService(cacheSize, compactEvery int) (*social.Service, error) {
	cfg := social.DefaultServiceConfig()
	cfg.SeekerCacheSize = cacheSize
	cfg.AutoCompactEvery = compactEvery
	names := &vocab.Set{
		Users: c.names.Users.Clone(),
		Items: c.names.Items.Clone(),
		Tags:  c.names.Tags.Clone(),
	}
	return social.Restore(cfg, c.ds.Graph, c.ds.Store, names)
}

// node is one HTTP server on a loopback port.
type node struct {
	url  string
	srv  *http.Server
	done chan error
}

func serve(h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h},
		done: make(chan error, 1),
	}
	go func() { n.done <- n.srv.Serve(ln) }()
	return n, nil
}

// close shuts the server down and waits for its accept loop to end.
func (n *node) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		n.srv.Close()
	}
	<-n.done
}

// stack is the serving fleet in one process: numReplicas replica
// servers over their own social.Service, and a front-end server over
// fleet.Frontend that reaches them through real loopback HTTP.
type stack struct {
	corpus      *corpus
	svcs        []*social.Service
	replicaSrvs []*server.Server
	clients     []*fleet.Client
	pool        *fleet.Pool
	bcast       *fleet.Broadcaster
	front       *fleet.Frontend
	replog      *fleet.RepLog
	frontSrv    *server.Server
	frontURL    string

	nodes      []*node
	transports []*http.Transport
	replogDir  string
}

// bootTimes splits stack construction for the set-up ledger.
type bootTimes struct {
	restore time.Duration // social.Restore × numReplicas
	boot    time.Duration // servers, clients, pool, front-end, replog
}

// newStack boots the fleet. The front-end logs every write to a wal in
// replogDir (SyncAlways) before fan-out; reads never touch it. A
// positive traceEvery installs the obs tracer on all four servers,
// recording one request in traceEvery; the benchmark proper runs with
// it off (0) and only the tracing-overhead probe turns it on.
func newStack(c *corpus, replogDir string, traceEvery int) (st *stack, bt bootTimes, err error) {
	st = &stack{corpus: c, replogDir: replogDir}
	defer func() {
		if err != nil {
			st.close()
		}
	}()

	t0 := time.Now()
	for i := 0; i < numReplicas; i++ {
		svc, err := c.newService(0, replicaCompactEvery)
		if err != nil {
			return nil, bt, fmt.Errorf("restoring replica %d: %w", i, err)
		}
		st.svcs = append(st.svcs, svc)
	}
	bt.restore = time.Since(t0)

	t0 = time.Now()
	for i, svc := range st.svcs {
		srv, err := server.New(svc)
		if err != nil {
			return nil, bt, err
		}
		srv.SetLogf(discardf)
		if traceEvery > 0 {
			srv.SetTracer(obs.NewTracer(obs.Config{Node: fmt.Sprintf("replica%d", i), SampleEvery: traceEvery}))
		}
		n, err := serve(srv)
		if err != nil {
			return nil, bt, fmt.Errorf("replica %d listen: %w", i, err)
		}
		st.nodes = append(st.nodes, n)
		st.replicaSrvs = append(st.replicaSrvs, srv)
		tr := &http.Transport{MaxIdleConns: 8, MaxIdleConnsPerHost: 8}
		st.transports = append(st.transports, tr)
		// No hedging: a duplicate request would make the work per op
		// depend on timing.
		cl, err := fleet.NewClient(n.url, fleet.ClientConfig{Transport: tr})
		if err != nil {
			return nil, bt, err
		}
		st.clients = append(st.clients, cl)
	}
	// The health prober is off: its probes would add timer-driven work,
	// and nothing fails in a run.
	st.pool, err = fleet.NewPool(st.clients, fleet.PoolConfig{HealthInterval: -1})
	if err != nil {
		return nil, bt, err
	}
	st.bcast = fleet.NewBroadcaster(st.clients, fleet.BroadcasterConfig{
		Window:        heartbeatNever,
		MaxBatchEdges: 1 << 20,
	})
	st.front, err = fleet.NewFrontend(st.pool, st.bcast)
	if err != nil {
		st.pool.Close()
		st.bcast.Close()
		return nil, bt, err
	}
	st.replog, err = fleet.OpenRepLog(replogDir)
	if err != nil {
		return nil, bt, err
	}
	if err = st.front.UseRepLog(st.replog); err != nil {
		st.replog.Close()
		return nil, bt, err
	}
	st.frontSrv, err = server.New(st.front)
	if err != nil {
		return nil, bt, err
	}
	st.frontSrv.SetLogf(discardf)
	if traceEvery > 0 {
		st.frontSrv.SetTracer(obs.NewTracer(obs.Config{Node: "frontend", SampleEvery: traceEvery}))
	}
	n, err := serve(st.frontSrv)
	if err != nil {
		return nil, bt, fmt.Errorf("front-end listen: %w", err)
	}
	st.nodes = append(st.nodes, n)
	st.frontURL = n.url
	bt.boot = time.Since(t0)
	return st, bt, nil
}

func discardf(string, ...interface{}) {}

// flush is the fleet's compaction heartbeat, fired synchronously: every
// replica folds its pending writes into the queryable snapshot and
// drops the cached horizons the batch's dirty edges could affect.
func (st *stack) flush(ctx context.Context) {
	st.bcast.Flush(ctx)
}

// close stops the servers, the front-end (pool, broadcaster, replog)
// and the client connections, and removes the replog directory.
func (st *stack) close() {
	for _, n := range st.nodes {
		n.close()
	}
	if st.front != nil {
		st.front.Close()
	}
	for _, tr := range st.transports {
		tr.CloseIdleConnections()
	}
	os.RemoveAll(st.replogDir)
}

// cacheCounters sums the seeker-cache counters over the replicas.
func (st *stack) cacheCounters() (hits, misses, evictions int64) {
	for _, svc := range st.svcs {
		c := svc.Stats().SeekerCache
		hits += c.Hits
		misses += c.Misses
		evictions += c.Evictions
	}
	return
}

// compactions sums the replicas' compaction counts.
func (st *stack) compactions() int {
	n := 0
	for _, svc := range st.svcs {
		n += svc.Stats().Compactions
	}
	return n
}

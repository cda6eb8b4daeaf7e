// Command friendserve runs the social tagging search service over
// HTTP/JSON — as a single process, as one replica of a fleet, or as a
// fleet front-end.
//
// Usage:
//
//	friendserve [-addr :8080] [-dir /var/lib/friendsearch] [-demo]
//	            [-cache-size 256] [-drain 500ms]
//	            [-admit] [-admit-max-window 256] [-admit-queue 128]
//	            [-admit-queue-deadline 500ms]
//	            [-log-format text] [-pprof] [-trace-sample 16]
//	            [-trace-slow 250ms] [-trace-recorder 256]
//	friendserve -replica [-addr :8081] [-join http://fe:8080]
//	            [-advertise http://host:8081] ...
//	friendserve -replicas http://a:8081,http://b:8082 [-addr :8080]
//	            -replog-dir /var/lib/friendsearch/replog
//	            [-health-interval 1s] [-fail-after 3]
//	            [-bcast-window 25ms] [-bcast-max-edges 512]
//	            [-catchup-timeout 30s] [-mutation-timeout 10s]
//	friendserve -replicas ... -replog-dir DIR -frontend-id fe1 \
//	            -peers fe1=http://fe1:8080,fe2=http://fe2:8080,fe3=http://fe3:8080
//
// With -dir the service is crash-safe: every mutation is written ahead
// to a log under the directory and the state survives restarts. Without
// it the service is in-memory. -demo preloads a small example corpus so
// the API can be explored immediately:
//
//	curl -s -d '{"seeker":"alice","tags":["pizza"],"k":3}' 'localhost:8080/v2/search'
//	curl -s -d '{"queries":[{"seeker":"alice","tags":["pizza"],"k":3}]}' \
//	     'localhost:8080/v2/search/batch'
//	curl -s -d '{"seeker":"alice","tags":["pizza"],"k":3,"mode":"auto","explain":true}' \
//	     'localhost:8080/v2/search'
//
// Fleet topology (see docs/fleet.md): N -replica processes each hold
// the full dataset and serve the whole API plus /v2/apply and
// /healthz//readyz; one -replicas front-end owns the public address,
// routes each seeker's queries to the replica owning it on a
// consistent-hash ring (failing over in ring order when health checks
// eject a replica), commits mutations to its log in one order, and
// streams them to every replica on its compaction heartbeat. A
// -replica process defers compaction to that heartbeat, where the
// friendships pending in its own overlay keep its seeker cache
// edge-scoped-consistent; run it standalone only for debugging.
//
// A front-end always writes through a replication log, so -replicas
// requires -replog-dir: every mutation is LSN-stamped and durably
// logged there before it is acknowledged, and a replica ejected by
// health checking is readmitted only after it has streamed and applied
// every record it missed (catch-up gating, bounded by
// -catchup-timeout), so a rejoining replica never serves answers
// derived from a stale graph. Without -peers the log is a one-member
// quorum (docs/adr/004): the front-end leads it from start, with no
// election, and a restart over the same -replog-dir resumes at the
// next LSN.
//
// With -join a -replica process asks a running front-end to adopt it
// into the fleet under traffic (docs/fleet.md "Elastic resize"): once
// this replica is serving, it POSTs its own -advertise URL (default:
// http://127.0.0.1 plus the -addr port) to the front-end's
// /v2/fleet/resize, which bootstraps it from a peer snapshot plus the
// replication log suffix, pre-warms its cache slice, and splices it
// into the routing ring. Retirement is driven from the front-end side:
//
//	curl -d '{"retire":[2]}' http://fe:8080/v2/fleet/resize
//
// With -frontend-id and -peers the front-end itself is highly
// available (docs/fleet.md, docs/adr/004): 2–3 front-ends replicate
// the replication log with leader election and quorum-acknowledged
// appends. -peers lists every quorum member as id=url pairs (this
// node's -frontend-id must appear among them; the URL set is fixed
// for the process lifetime); -replog-dir holds this node's copy of
// the consensus log, and an existing single-front-end replication
// log in that directory is adopted in place as the committed prefix
// (a directory that served in a quorum never reopens without its
// peers). The elected leader acknowledges a write only after a
// majority acknowledges the append; followers serve reads from the
// same replica ring and answer writes with a 307 redirect naming the
// leader. HA front-ends refuse elastic resize: each owns its pool. All
// three flags ride on -replicas mode.
//
// All modes drain gracefully on SIGTERM/SIGINT: /readyz flips to 503,
// the process keeps serving for -drain so load balancers notice, then
// in-flight requests get 10s to finish.
//
// -cache-size bounds the seeker-horizon cache, which stripes its lock
// by that capacity (one stripe per 64 entries); -cache-size -1 disables
// caching.
//
// -admit enables adaptive overload control (docs/overload.md): an AIMD
// concurrency window with a deadline-budgeted FIFO queue in front of
// every query and unstamped mutation. Requests past the budget are
// shed with 429 + Retry-After. LSN-stamped replication applies are
// never shed.
// Works in every mode — on a replica it protects that replica's
// engine; on the front-end it bounds fleet-wide fan-out.
//
// Observability (docs/observability.md): every process carries an
// always-on tracing plane. Requests get W3C-traceparent trace/span
// ids (minted at the front-end, propagated to replicas and quorum
// peers), 1-in-N head sampling plus tail capture of slow, shed and
// failed requests into an in-process flight recorder at
// GET /debug/traces, a slow-query log at GET /debug/slowlog, and
// Prometheus text-format metrics at GET /metrics. -trace-sample sets
// the head-sampling rate (1 = trace everything, negative disables),
// -trace-slow the slow/tail threshold, -trace-recorder the ring
// capacity. -log-format json switches the structured request log
// (one line per sampled or tail-captured request, carrying trace id,
// node id and quorum role) from logfmt-style text to JSON. -pprof
// mounts net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/admission"
	"repro/internal/durable"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/server"
	"repro/internal/social"
)

// replicaCompactEvery effectively disables count-triggered
// auto-compaction in -replica mode: the front-end's heartbeat decides
// when replicas fold pending writes, so all land on the same snapshots.
const replicaCompactEvery = 1 << 30

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "durable state directory (empty: in-memory)")
	demo := flag.Bool("demo", false, "preload a small demo corpus")
	cacheSize := flag.Int("cache-size", 0, "seeker-cache entries (0 = default, negative disables)")
	drain := flag.Duration("drain", 500*time.Millisecond, "keep serving this long after /readyz flips to 503 on shutdown")
	replica := flag.Bool("replica", false, "serve as a fleet replica (compaction deferred to the front-end's heartbeat)")
	joinURL := flag.String("join", "", "replica: ask this front-end to adopt this process into the fleet once serving (elastic join)")
	advertise := flag.String("advertise", "", "replica: base URL the front-end reaches this replica at (default: http://127.0.0.1 + the -addr port)")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs: serve as the fleet front-end")
	healthInterval := flag.Duration("health-interval", 0, "front-end: replica /healthz probe period (0 = default)")
	failAfter := flag.Int("fail-after", 0, "front-end: consecutive failures before ejecting a replica (0 = default)")
	bcastWindow := flag.Duration("bcast-window", 0, "front-end: compaction heartbeat coalescing window (0 = default)")
	bcastMaxEdges := flag.Int("bcast-max-edges", 0, "front-end: send the heartbeat early once this many Befriends were written since the last (0 = default)")
	replogDir := flag.String("replog-dir", "", "front-end: replication log directory (required with -replicas): a one-member log without -peers, this node's copy of the quorum log with them; every write is committed here before it is acknowledged, and replicas catch up from it")
	frontendID := flag.String("frontend-id", "", "HA front-end: this node's stable quorum id (must be a key of -peers)")
	peers := flag.String("peers", "", "HA front-end: comma-separated id=url pairs for every quorum member including this node; replicates the log across them (requires -replicas and -frontend-id; without it the log has one member)")
	catchupTimeout := flag.Duration("catchup-timeout", 0, "front-end: bound on one replica's replication log catch-up (0 = default 30s)")
	mutationTimeout := flag.Duration("mutation-timeout", 0, "front-end: bound on the quorum majority acknowledgement of one write and on the /v1/users fan-out (0 = default 10s)")
	admit := flag.Bool("admit", false, "enable adaptive admission control (AIMD window + bounded queue; see docs/overload.md)")
	admitMaxWindow := flag.Int("admit-max-window", 0, "admission: concurrency window ceiling (0 = default)")
	admitQueue := flag.Int("admit-queue", 0, "admission: bounded wait-queue length (0 = default)")
	admitQueueDeadline := flag.Duration("admit-queue-deadline", 0, "admission: max time a request may wait queued (0 = default)")
	logFormat := flag.String("log-format", "text", "structured request-log format: text or json")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	traceSample := flag.Int("trace-sample", 0, "trace head-sampling rate: record 1 in N requests (1 = all, 0 = default 16, negative disables)")
	traceSlow := flag.Duration("trace-slow", 0, "tail-capture and slow-log any request at least this slow (0 = default 250ms, negative disables)")
	traceRecorder := flag.Int("trace-recorder", 0, "flight-recorder capacity in completed traces (0 = default 256)")
	flag.Parse()

	if *replica && *replicas != "" {
		log.Fatalf("friendserve: -replica and -replicas are mutually exclusive")
	}
	if *joinURL != "" && !*replica {
		log.Fatalf("friendserve: -join requires -replica")
	}
	if (*peers != "") != (*frontendID != "") {
		log.Fatalf("friendserve: -peers and -frontend-id go together")
	}
	if *peers != "" && *replicas == "" {
		log.Fatalf("friendserve: -peers requires -replicas")
	}
	if *replicas != "" && *replogDir == "" {
		log.Fatalf("friendserve: -replicas requires -replog-dir (a front-end always writes through a replication log)")
	}
	if *logFormat != "text" && *logFormat != "json" {
		log.Fatalf("friendserve: -log-format must be text or json (got %q)", *logFormat)
	}

	// One stable node identity names this process in spans, trace
	// records, log lines and /metrics: the quorum id when the
	// front-end is HA, otherwise the listen address.
	nodeID := *frontendID
	if nodeID == "" {
		nodeID = *addr
	}
	logger := obs.NewLogger(os.Stderr, *logFormat, nodeID)

	var backend server.Backend
	var cleanup func()
	var qnode *quorum.Node
	if *replicas != "" {
		front, node, err := buildFrontend(frontendOpts{
			urls:            *replicas,
			healthInterval:  *healthInterval,
			failAfter:       *failAfter,
			bcastWindow:     *bcastWindow,
			bcastMaxEdges:   *bcastMaxEdges,
			replogDir:       *replogDir,
			catchupTimeout:  *catchupTimeout,
			mutationTimeout: *mutationTimeout,
			frontendID:      *frontendID,
			peers:           *peers,
			logf:            logger.Printf,
		})
		if err != nil {
			log.Fatalf("friendserve: %v", err)
		}
		backend, cleanup, qnode = front, front.Close, node
		if qnode != nil {
			log.Printf("HA fleet front-end %s over %s (quorum log: %s, peers: %s)",
				*frontendID, *replicas, *replogDir, *peers)
		} else {
			log.Printf("fleet front-end over %s (replication log: %s)", *replicas, *replogDir)
		}
	} else {
		svcCfg := social.DefaultServiceConfig()
		svcCfg.SeekerCacheSize = *cacheSize
		if *replica {
			svcCfg.AutoCompactEvery = replicaCompactEvery
		}
		var err error
		backend, cleanup, err = buildBackend(*dir, svcCfg, *replica)
		if err != nil {
			log.Fatalf("friendserve: %v", err)
		}
	}
	defer cleanup()

	if *demo {
		if err := loadDemo(backend); err != nil {
			log.Fatalf("friendserve: loading demo corpus: %v", err)
		}
		log.Printf("demo corpus loaded (try seeker=alice tags=pizza)")
	}

	srv, err := server.New(backend)
	if err != nil {
		log.Fatalf("friendserve: %v", err)
	}
	srv.SetDrainDelay(*drain)

	// The observability plane: tracer + flight recorder, build info on
	// /healthz and /v1/stats, structured request log, /metrics, and
	// (opt-in) pprof. The quorum role callback keeps every log line
	// honest about who was leader when it was written.
	tracer := obs.NewTracer(obs.Config{
		Node:             nodeID,
		SampleEvery:      *traceSample,
		SlowThreshold:    *traceSlow,
		RecorderCapacity: *traceRecorder,
	})
	srv.SetTracer(tracer)
	srv.SetBuild(obs.NewBuild(nodeID))
	srv.SetAccessLogger(logger)
	srv.SetLogf(logger.Printf)
	if *pprofOn {
		srv.EnablePprof()
	}
	switch {
	case qnode != nil:
		logger.SetRole(func() string { return qnode.Stats().Role })
	case *replicas != "":
		logger.SetRole(func() string { return "frontend" })
	case *replica:
		logger.SetRole(func() string { return "replica" })
	}

	if qnode != nil {
		// The consensus transport shares the public listener; start the
		// node's timers only once the handler is about to accept RPCs.
		srv.MountQuorum(qnode.Handler())
		qnode.Start()
	}
	if *admit {
		ctrl := admission.New(admission.Config{
			MaxWindow:     *admitMaxWindow,
			QueueLimit:    *admitQueue,
			QueueDeadline: *admitQueueDeadline,
		})
		srv.SetAdmission(ctrl)
		log.Printf("admission control on (max window=%d queue=%d deadline=%v; 0 = package default)",
			*admitMaxWindow, *admitQueue, *admitQueueDeadline)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case *replicas != "":
		log.Printf("listening on %s (fleet front-end)", *addr)
	case *replica:
		log.Printf("listening on %s (fleet replica, durable=%v)", *addr, *dir != "")
	default:
		log.Printf("listening on %s (durable=%v)", *addr, *dir != "")
	}
	if *joinURL != "" {
		self := *advertise
		if self == "" {
			self = defaultAdvertise(*addr)
		}
		go selfJoin(ctx, *joinURL, self)
	}
	if err := srv.ListenAndServe(ctx, *addr, 10*time.Second); err != nil {
		log.Fatalf("friendserve: %v", err)
	}
	log.Printf("shut down cleanly")
}

// defaultAdvertise derives the URL a front-end can reach this process
// at from the listen address: a bare ":8081" advertises loopback.
func defaultAdvertise(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return "http://127.0.0.1" + addr
	}
	return "http://" + addr
}

// selfJoin asks the front-end to adopt this replica into the fleet,
// retrying until the local server answers /healthz and the front-end
// accepts the resize (a joiner often starts before, or alongside, the
// front-end). Joins are idempotent by URL on the front-end side, so a
// retry after a half-completed attempt resumes rather than duplicating.
func selfJoin(ctx context.Context, frontURL, selfURL string) {
	const attempts = 60
	body := fmt.Sprintf(`{"join":[%q]}`, selfURL)
	for i := 0; i < attempts; i++ {
		if ctx.Err() != nil {
			return
		}
		err := func() error {
			rctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
			defer cancel()
			req, err := http.NewRequestWithContext(rctx, http.MethodPost,
				strings.TrimRight(frontURL, "/")+"/v2/fleet/resize", strings.NewReader(body))
			if err != nil {
				return err
			}
			req.Header.Set("Content-Type", "application/json")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			payload, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("front-end answered %d: %s", resp.StatusCode, strings.TrimSpace(string(payload)))
			}
			log.Printf("joined fleet via %s: %s", frontURL, strings.TrimSpace(string(payload)))
			return nil
		}()
		if err == nil {
			return
		}
		log.Printf("fleet join attempt %d/%d via %s: %v", i+1, attempts, frontURL, err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Second):
		}
	}
	log.Printf("fleet join via %s gave up after %d attempts", frontURL, attempts)
}

type frontendOpts struct {
	urls            string
	healthInterval  time.Duration
	failAfter       int
	bcastWindow     time.Duration
	bcastMaxEdges   int
	replogDir       string
	catchupTimeout  time.Duration
	mutationTimeout time.Duration
	frontendID      string
	peers           string
	logf            func(format string, args ...interface{})
}

// parsePeers reads the -peers "id=url,id=url" form into the quorum
// member map.
func parsePeers(s string) (map[string]string, error) {
	out := make(map[string]string)
	for _, pair := range strings.Split(s, ",") {
		if pair = strings.TrimSpace(pair); pair == "" {
			continue
		}
		id, url, ok := strings.Cut(pair, "=")
		id, url = strings.TrimSpace(id), strings.TrimSpace(url)
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("malformed -peers entry %q (want id=url)", pair)
		}
		if _, dup := out[id]; dup {
			return nil, fmt.Errorf("duplicate -peers id %q", id)
		}
		out[id] = url
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-peers named no members")
	}
	return out, nil
}

// buildFrontend returns the front-end and, when its log has peers, the
// quorum node the caller mounts and starts.
func buildFrontend(o frontendOpts) (*fleet.Frontend, *quorum.Node, error) {
	var clients []*fleet.Client
	for _, u := range strings.Split(o.urls, ",") {
		if u = strings.TrimSpace(u); u == "" {
			continue
		}
		c, err := fleet.NewClient(u, fleet.ClientConfig{})
		if err != nil {
			return nil, nil, err
		}
		clients = append(clients, c)
	}
	pool, err := fleet.NewPool(clients, fleet.PoolConfig{
		HealthInterval: o.healthInterval,
		FailAfter:      o.failAfter,
	})
	if err != nil {
		return nil, nil, err
	}
	bcast := fleet.NewBroadcaster(clients, fleet.BroadcasterConfig{
		Window:        o.bcastWindow,
		MaxBatchEdges: o.bcastMaxEdges,
	})
	front, err := fleet.NewFrontend(pool, bcast)
	if err != nil {
		pool.Close()
		bcast.Close()
		return nil, nil, err
	}
	if o.mutationTimeout > 0 {
		front.MutationTimeout = o.mutationTimeout
	}
	if o.catchupTimeout > 0 {
		front.CatchupTimeout = o.catchupTimeout
	}
	// The replog directory holds a one-member log without -peers, else
	// this node's copy of the quorum log (an existing one-member log is
	// adopted as the committed prefix).
	var peerMap map[string]string
	if o.peers != "" {
		if peerMap, err = parsePeers(o.peers); err != nil {
			front.Close()
			return nil, nil, err
		}
	}
	logf := o.logf
	if logf == nil {
		logf = log.Printf
	}
	node, err := quorum.Open(quorum.Config{
		ID:    o.frontendID,
		Peers: peerMap,
		Dir:   o.replogDir,
		Logf:  logf,
	})
	if err != nil {
		front.Close()
		return nil, nil, err
	}
	if err := front.UseQuorum(node); err != nil {
		node.Close()
		front.Close()
		return nil, nil, err
	}
	if node.Members() == 1 {
		// One member takes office at once and mounts no quorum routes: a
		// stranger's vote request at a higher term would depose it.
		node.Start()
		return front, nil, nil
	}
	return front, node, nil
}

func buildBackend(dir string, cfg social.ServiceConfig, replica bool) (server.Backend, func(), error) {
	if dir == "" {
		if !replica {
			cfg.AutoCompactEvery = 0
		}
		svc, err := social.NewService(cfg)
		return svc, func() {}, err
	}
	dcfg := durable.DefaultConfig()
	dcfg.Service = cfg
	svc, err := durable.Open(dir, dcfg)
	if err != nil {
		return nil, nil, err
	}
	return svc, func() {
		if err := svc.Close(); err != nil {
			log.Printf("friendserve: closing durable service: %v", err)
		}
	}, nil
}

func loadDemo(b server.Backend) error {
	friends := []struct {
		a, b string
		w    float64
	}{
		{"alice", "bob", 0.9}, {"bob", "carol", 0.8}, {"alice", "dave", 0.5},
		{"carol", "erin", 0.7}, {"dave", "erin", 0.6},
	}
	tags := []struct{ u, i, t string }{
		{"bob", "luigis", "pizza"}, {"bob", "luigis", "italian"},
		{"carol", "marios", "pizza"}, {"dave", "marios", "pizza"},
		{"erin", "sushiko", "sushi"}, {"alice", "sushiko", "sushi"},
		{"erin", "luigis", "pizza"},
	}
	for _, f := range friends {
		if err := b.Befriend(f.a, f.b, f.w); err != nil {
			return fmt.Errorf("befriend %s-%s: %w", f.a, f.b, err)
		}
	}
	for _, tg := range tags {
		if err := b.Tag(tg.u, tg.i, tg.t); err != nil {
			return fmt.Errorf("tag %s/%s/%s: %w", tg.u, tg.i, tg.t, err)
		}
	}
	return nil
}

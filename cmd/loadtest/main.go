// Command loadtest drives an open-loop fixed-rate load against a
// friendserve instance (single process, replica, or fleet front-end)
// and reports throughput-at-SLO as JSON.
//
// Usage:
//
//	loadtest -url http://localhost:8080 [-qps 200] [-duration 10s]
//	         [-slo 100ms] [-timeout 0] [-mix 90,5,5] [-batch 8] [-k 10]
//	         [-seekers 64] [-tags 8] [-seed 1] [-max-outstanding 4096]
//	         [-seed-corpus] [-out report.json]
//	loadtest -url ... -sweep 100,200,400,800      # one report per step
//	loadtest -url ... -calibrate                  # find capacity, print QPS
//
// Assertion flags turn the run into a pass/fail check (exit 1 on
// violation) so CI scripts need no JSON post-processing:
//
//	-max-p99 150ms        fail if p99 of admitted requests exceeds this
//	-min-goodput 70       fail if on-SLO successes per second fall below
//	-min-shed 1           fail if less than this percent of sends shed
//	-expect-p99-over 1s   fail unless p99 EXCEEDS this (for proving an
//	                      admission-off run violates the SLO)
//
// In -calibrate mode the measured capacity (last healthy QPS on a ×2
// ramp) is printed alone on stdout so shell scripts can capture it;
// the full report still goes to -out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/search"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadtest: ")

	url := flag.String("url", "", "target base URL (required)")
	qps := flag.Float64("qps", 200, "offered arrival rate; -calibrate uses it as the ramp start")
	duration := flag.Duration("duration", 10*time.Second, "length of each fixed-rate step")
	slo := flag.Duration("slo", 100*time.Millisecond, "latency bound for goodput")
	timeout := flag.Duration("timeout", 0, "per-request deadline (0 = 2×SLO)")
	mixFlag := flag.String("mix", "90,5,5", "read,write,batch weights")
	batch := flag.Int("batch", 8, "queries per batch request")
	k := flag.Int("k", 10, "top-k per query")
	seekers := flag.Int("seekers", 64, "synthetic user corpus size")
	tags := flag.Int("tags", 8, "synthetic tag corpus size")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	maxOut := flag.Int("max-outstanding", 4096, "cap on in-flight requests")
	seedCorpus := flag.Bool("seed-corpus", true, "declare the synthetic graph on the target before driving load")
	sweepFlag := flag.String("sweep", "", "comma-separated QPS steps: emit one report per step")
	calibrate := flag.Bool("calibrate", false, "ramp ×2 from -qps until unhealthy; print last healthy QPS")
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	maxP99 := flag.Duration("max-p99", 0, "assert p99 <= this (0 = skip)")
	minGoodput := flag.Float64("min-goodput", 0, "assert goodput QPS >= this (0 = skip)")
	minShed := flag.Float64("min-shed", 0, "assert shed percentage >= this (0 = skip)")
	expectP99Over := flag.Duration("expect-p99-over", 0, "assert p99 > this (0 = skip)")
	maxAdmittedP99 := flag.Duration("max-admitted-p99", 0, "assert the target's server-side admitted-latency p99 (from /v1/stats) <= this (0 = skip)")
	minStatShed := flag.Int64("min-stat-shed", 0, "assert the target's admission shed counters (from /v1/stats) total >= this (0 = skip)")
	minStatOK := flag.Int64("min-stat-ok", 0, "assert the target's on-deadline completion counter (from /v1/stats) >= this (0 = skip)")
	flag.Parse()

	if *url == "" {
		log.Fatal("-url is required")
	}
	mix, err := parseMix(*mixFlag)
	if err != nil {
		log.Fatal(err)
	}

	// The connection pool must cover the in-flight cap, or the harness
	// serializes on dials and measures itself instead of the target.
	idle := *maxOut
	if idle > 2048 {
		idle = 2048
	}
	clientTimeout := pickClientTimeout(*timeout, *slo)
	client, err := fleet.NewClient(*url, fleet.ClientConfig{
		Timeout:      clientTimeout,
		MaxIdleConns: idle,
	})
	if err != nil {
		log.Fatal(err)
	}
	target := &clientTarget{c: client}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	corpus := makeCorpus(*seekers, *tags)
	if *seedCorpus {
		if err := corpus.declare(ctx, target); err != nil {
			log.Fatalf("seeding corpus on %s: %v", *url, err)
		}
		if err := corpus.awaitQueryable(ctx, target, clientTimeout); err != nil {
			log.Fatalf("seeding corpus on %s: %v", *url, err)
		}
	}

	base := loadgen.Config{
		QPS:            *qps,
		Duration:       *duration,
		SLO:            *slo,
		Timeout:        *timeout,
		Mix:            mix,
		BatchSize:      *batch,
		Seekers:        corpus.users,
		Tags:           corpus.tags,
		K:              *k,
		MaxOutstanding: *maxOut,
		Seed:           *seed,
	}

	var result interface{}
	var rep loadgen.Report
	switch {
	case *calibrate:
		cap, capRep, err := loadgen.FindCapacity(ctx, target, base, *qps)
		if err != nil {
			log.Fatal(err)
		}
		rep = capRep
		result = struct {
			CapacityQPS float64        `json:"capacity_qps"`
			Report      loadgen.Report `json:"report"`
		}{cap, capRep}
		// Shell-capturable: the number alone on stdout.
		fmt.Println(strconv.FormatFloat(cap, 'f', -1, 64))
	case *sweepFlag != "":
		steps, err := parseSweep(*sweepFlag)
		if err != nil {
			log.Fatal(err)
		}
		reps, err := loadgen.Sweep(ctx, target, base, steps)
		if err != nil {
			log.Fatal(err)
		}
		if len(reps) > 0 {
			rep = reps[len(reps)-1]
		}
		result = reps
	default:
		rep, err = loadgen.Run(ctx, target, base)
		if err != nil {
			log.Fatal(err)
		}
		result = rep
	}

	if err := emit(result, *out, *calibrate); err != nil {
		log.Fatal(err)
	}
	if err := assertReport(rep, *maxP99, *minGoodput, *minShed, *expectP99Over); err != nil {
		log.Fatal(err)
	}
	if err := assertServerStats(ctx, *url, *maxAdmittedP99, *minStatShed, *minStatOK); err != nil {
		log.Fatal(err)
	}
}

// assertServerStats checks the target's own admission accounting: the
// server-side latency of admitted requests (which excludes shed 429s
// and client network time), the shed totals, and the on-deadline
// completion count — the server's view of goodput, immune to harness
// CPU contention when generator and target share a machine.
func assertServerStats(ctx context.Context, url string, maxAdmittedP99 time.Duration, minShed, minOK int64) error {
	if maxAdmittedP99 <= 0 && minShed <= 0 && minOK <= 0 {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/v1/stats", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("fetching %s/v1/stats: %w", url, err)
	}
	defer resp.Body.Close()
	var env struct {
		Admission *struct {
			ShedQueueFull int64
			ShedBudget    int64
			ShedDeadline  int64
			OKOnDeadline  int64
			Latency       struct {
				P99 time.Duration
			}
		}
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		return fmt.Errorf("decoding %s/v1/stats: %w", url, err)
	}
	if env.Admission == nil {
		return fmt.Errorf("%s/v1/stats carries no Admission block: is -admit on?", url)
	}
	if maxAdmittedP99 > 0 && env.Admission.Latency.P99 > maxAdmittedP99 {
		return fmt.Errorf("assertion failed: server admitted p99 %v > max-admitted-p99 %v",
			env.Admission.Latency.P99, maxAdmittedP99)
	}
	if shed := env.Admission.ShedQueueFull + env.Admission.ShedBudget + env.Admission.ShedDeadline; minShed > 0 && shed < minShed {
		return fmt.Errorf("assertion failed: server shed total %d < min-stat-shed %d", shed, minShed)
	}
	if minOK > 0 && env.Admission.OKOnDeadline < minOK {
		return fmt.Errorf("assertion failed: server on-deadline completions %d < min-stat-ok %d",
			env.Admission.OKOnDeadline, minOK)
	}
	return nil
}

// clientTarget adapts fleet.Client (LSN-stamped mutations) to
// loadgen.Target (load-generated mutations are unstamped: lsn 0 takes
// the normal admission-controlled write path).
type clientTarget struct {
	c *fleet.Client
}

func (t *clientTarget) Do(ctx context.Context, req search.Request) (search.Response, error) {
	return t.c.Do(ctx, req)
}

func (t *clientTarget) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	return t.c.DoBatch(ctx, reqs)
}

func (t *clientTarget) Befriend(ctx context.Context, a, b string, weight float64) error {
	_, err := t.c.Befriend(ctx, a, b, weight, 0)
	return err
}

func (t *clientTarget) Tag(ctx context.Context, user, item, tag string) error {
	_, err := t.c.Tag(ctx, user, item, tag, 0)
	return err
}

// corpus is the synthetic social graph the run queries.
type corpus struct {
	users []string
	items []string
	tags  []string
}

func makeCorpus(nUsers, nTags int) corpus {
	if nUsers < 2 {
		nUsers = 2
	}
	if nTags < 1 {
		nTags = 1
	}
	c := corpus{
		users: make([]string, nUsers),
		items: make([]string, nUsers/2+1),
		tags:  make([]string, nTags),
	}
	for i := range c.users {
		c.users[i] = fmt.Sprintf("u%04d", i)
	}
	for i := range c.items {
		c.items[i] = fmt.Sprintf("item%04d", i)
	}
	for i := range c.tags {
		c.tags[i] = fmt.Sprintf("tag%02d", i)
	}
	return c
}

// declare builds a ring-plus-chords friendship graph and spreads item
// tags across users, so every seeker has a horizon and every tag has
// answers. Idempotent: re-declaring an edge just resets its weight.
func (c corpus) declare(ctx context.Context, t *clientTarget) error {
	n := len(c.users)
	for i, u := range c.users {
		if err := t.Befriend(ctx, u, c.users[(i+1)%n], 0.8); err != nil {
			return err
		}
		if err := t.Befriend(ctx, u, c.users[(i+7)%n], 0.4); err != nil {
			return err
		}
	}
	for i, item := range c.items {
		u := c.users[(i*3)%n]
		tag := c.tags[i%len(c.tags)]
		if err := t.Tag(ctx, u, item, tag); err != nil {
			return err
		}
		if i%2 == 0 {
			if err := t.Tag(ctx, c.users[(i*5+1)%n], item, c.tags[(i+1)%len(c.tags)]); err != nil {
				return err
			}
		}
	}
	return nil
}

// awaitQueryable polls /v2/search/batch until every declared seeker
// answers a query over every corpus tag. The target acknowledges a
// write once it is logged, but a fleet replica knows the write's names
// only after the next heartbeat folds it, and each replica folds on
// its own stream, so a run started at once would count its first reads
// invalid. The wait is bounded by d (0: the client's default timeout).
func (c corpus) awaitQueryable(ctx context.Context, t *clientTarget, d time.Duration) error {
	if d <= 0 {
		d = fleet.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()
	reqs := make([]search.Request, len(c.users))
	for i, u := range c.users {
		reqs[i] = search.Request{Seeker: u, Tags: c.tags, K: 1}
	}
	for len(reqs) > 0 {
		n := min(len(reqs), server.MaxBatchQueries)
		var err error
		for _, r := range t.DoBatch(ctx, reqs[:n]) {
			if err = r.Err; err != nil {
				break
			}
		}
		if err == nil {
			reqs = reqs[n:]
			continue
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("declared corpus not queryable within %v: %w", d, err)
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

func parseMix(s string) (loadgen.Mix, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return loadgen.Mix{}, fmt.Errorf("mix %q: want read,write,batch", s)
	}
	var w [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 0 {
			return loadgen.Mix{}, fmt.Errorf("mix %q: bad weight %q", s, p)
		}
		w[i] = v
	}
	return loadgen.Mix{Read: w[0], Write: w[1], Batch: w[2]}, nil
}

func parseSweep(s string) ([]float64, error) {
	var out []float64
	for _, p := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("sweep %q: bad step %q", s, p)
		}
		out = append(out, v)
	}
	return out, nil
}

func pickClientTimeout(timeout, slo time.Duration) time.Duration {
	if timeout > 0 {
		return timeout
	}
	if slo > 0 {
		return 2 * slo
	}
	return 0
}

func emit(result interface{}, path string, calibrating bool) error {
	b, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	if path == "" {
		// In calibrate mode stdout already carries the bare capacity
		// number; push the JSON to stderr to keep stdout parseable.
		if calibrating {
			_, err = os.Stderr.Write(b)
		} else {
			_, err = os.Stdout.Write(b)
		}
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func assertReport(r loadgen.Report, maxP99 time.Duration, minGoodput, minShed float64, expectP99Over time.Duration) error {
	if maxP99 > 0 && r.P99 > maxP99 {
		return fmt.Errorf("assertion failed: p99 %v > max-p99 %v", r.P99, maxP99)
	}
	if minGoodput > 0 && r.Goodput < minGoodput {
		return fmt.Errorf("assertion failed: goodput %.1f qps < min-goodput %.1f", r.Goodput, minGoodput)
	}
	if minShed > 0 && r.ShedPct < minShed {
		return fmt.Errorf("assertion failed: shed %.1f%% < min-shed %.1f%%", r.ShedPct, minShed)
	}
	if expectP99Over > 0 && r.P99 <= expectP99Over {
		return fmt.Errorf("assertion failed: p99 %v <= expect-p99-over %v (overload did not hurt?)", r.P99, expectP99Over)
	}
	return nil
}

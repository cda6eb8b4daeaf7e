// Package loadgen is an open-loop load harness: it offers requests to
// a target at a fixed arrival rate — timer-driven, never waiting for
// responses — and classifies every outcome against a latency SLO. The
// open loop is the point: a closed loop (N workers, next request after
// the previous answers) self-throttles exactly when the system slows
// down, hiding the overload the harness exists to measure (the
// coordinated-omission trap). Here arrivals keep coming at the offered
// rate no matter how the target behaves, so queueing delay, shedding
// and brownout all show up in the numbers.
//
// The headline metric is throughput-at-SLO: sweep offered QPS and
// report, per step, the goodput (on-SLO successes per second) plus the
// latency quantiles and shed fraction. See
// cmd/loadtest for the CLI and scripts/overload_smoke.sh for the CI
// assertion run.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/search"
)

// Target is the surface the generator drives. fleet.Client and any
// in-process service wrapped with ctx-less mutations adapt to it; see
// cmd/loadtest.
type Target interface {
	search.Searcher
	Befriend(ctx context.Context, a, b string, weight float64) error
	Tag(ctx context.Context, user, item, tag string) error
}

// Mix weights the request classes. Zero values are allowed; an
// all-zero mix defaults to reads only.
type Mix struct {
	Read  int `json:"read"`
	Write int `json:"write"`
	Batch int `json:"batch"`
}

// DefaultMix is read-heavy with a write trickle, the serving posture
// the paper's workloads assume.
func DefaultMix() Mix { return Mix{Read: 90, Write: 5, Batch: 5} }

// Config tunes one fixed-rate run.
type Config struct {
	// QPS is the offered arrival rate (> 0).
	QPS float64
	// Duration is how long arrivals are offered.
	Duration time.Duration
	// SLO is the latency bound a success must meet to count as goodput.
	SLO time.Duration
	// Timeout is the per-request context deadline (0 = 2×SLO).
	Timeout time.Duration
	// Mix weights request classes (zero value = reads only).
	Mix Mix
	// BatchSize is the number of queries per batch request (0 = 8).
	BatchSize int
	// Seekers and Tags are the corpus names queries draw from.
	Seekers []string
	Tags    []string
	// K is the top-k asked per query (0 = 10).
	K int
	// MaxOutstanding caps in-flight requests so a stuck target cannot
	// accumulate unbounded goroutines (0 = 4096). Arrivals past the cap
	// are counted Dropped — they represent work the harness could not
	// even offer, and are reported, never silently discarded.
	MaxOutstanding int
	// Seed seeds the workload RNG (0 = 1).
	Seed int64
}

func (c Config) withDefaults() (Config, error) {
	if c.QPS <= 0 {
		return c, fmt.Errorf("loadgen: QPS %v must be > 0", c.QPS)
	}
	if c.Duration <= 0 {
		return c, fmt.Errorf("loadgen: duration %v must be > 0", c.Duration)
	}
	if len(c.Seekers) == 0 {
		return c, fmt.Errorf("loadgen: empty seeker corpus")
	}
	if c.SLO <= 0 {
		c.SLO = 100 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * c.SLO
	}
	if c.Mix.Read <= 0 && c.Mix.Write <= 0 && c.Mix.Batch <= 0 {
		c.Mix = Mix{Read: 1}
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.MaxOutstanding <= 0 {
		c.MaxOutstanding = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// Report is one run's outcome. Latency quantiles cover admitted
// requests (anything that got an answer, on time or late); sheds and
// transport failures are counted, not timed.
type Report struct {
	QPS      float64       `json:"qps"`
	Duration time.Duration `json:"duration_ns"`
	SLO      time.Duration `json:"slo_ns"`

	Offered int64 `json:"offered"`
	Sent    int64 `json:"sent"`
	Dropped int64 `json:"dropped"` // arrivals past MaxOutstanding

	OK          int64 `json:"ok"`   // success within SLO
	Late        int64 `json:"late"` // success past SLO
	Shed        int64 `json:"shed"` // ErrOverloaded
	Unavailable int64 `json:"unavailable"`
	Invalid     int64 `json:"invalid"`
	Timeout     int64 `json:"timeout"` // ctx deadline/cancel
	OtherErrors int64 `json:"other_errors"`

	Goodput float64 `json:"goodput_qps"` // OK per second
	ShedPct float64 `json:"shed_pct"`

	P50  time.Duration `json:"p50_ns"`
	P99  time.Duration `json:"p99_ns"`
	P999 time.Duration `json:"p999_ns"`
	Max  time.Duration `json:"max_ns"`
}

// counters aggregates outcomes lock-free across arrival goroutines.
type counters struct {
	sent, dropped                              atomic.Int64
	ok, late                                   atomic.Int64
	shed, unavailable, invalid, timeout, other atomic.Int64
}

// Run offers cfg.QPS arrivals per second against target for
// cfg.Duration and reports the outcome. ctx cancellation stops the run
// early (outcomes so far are still reported).
func Run(ctx context.Context, target Target, cfg Config) (Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Report{}, err
	}
	var (
		cnt         counters
		outstanding atomic.Int64
		wg          sync.WaitGroup
		hist        = metrics.NewHistogram(0) // cumulative over the run
	)
	rng := rand.New(rand.NewSource(cfg.Seed))
	interval := time.Duration(float64(time.Second) / cfg.QPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	start := time.Now()
	end := start.Add(cfg.Duration)
	var offered int64

	for next := start; next.Before(end); next = next.Add(interval) {
		// Open loop: sleep until the arrival is due, then fire it
		// regardless of how many are still in flight. When the clock is
		// already past `next` (scheduling lag), fire immediately —
		// arrivals are due by wall time, not by the loop's progress.
		if d := time.Until(next); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				wg.Wait()
				return buildReport(cfg, time.Since(start), offered, &cnt, hist), ctx.Err()
			}
		} else if ctx.Err() != nil {
			wg.Wait()
			return buildReport(cfg, time.Since(start), offered, &cnt, hist), ctx.Err()
		}
		offered++
		if outstanding.Load() >= int64(cfg.MaxOutstanding) {
			cnt.dropped.Add(1)
			continue
		}
		kind := pickKind(rng, cfg.Mix)
		seed := rng.Int63() // per-request randomness, drawn on the loop goroutine
		outstanding.Add(1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer outstanding.Add(-1)
			fire(ctx, target, cfg, kind, seed, &cnt, hist)
		}()
	}
	wg.Wait()
	return buildReport(cfg, time.Since(start), offered, &cnt, hist), nil
}

type reqKind int

const (
	kindRead reqKind = iota
	kindWrite
	kindBatch
)

func pickKind(rng *rand.Rand, m Mix) reqKind {
	total := m.Read + m.Write + m.Batch
	n := rng.Intn(total)
	switch {
	case n < m.Read:
		return kindRead
	case n < m.Read+m.Write:
		return kindWrite
	default:
		return kindBatch
	}
}

// fire issues one request and classifies its outcome.
func fire(ctx context.Context, target Target, cfg Config, kind reqKind, seed int64, cnt *counters, hist *metrics.Histogram) {
	rng := rand.New(rand.NewSource(seed))
	rctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	cnt.sent.Add(1)
	start := time.Now()
	var err error
	switch kind {
	case kindWrite:
		// Writes re-declare edges inside the existing corpus, so the
		// graph topology (and thus query cost) stays stable over a run.
		a := cfg.Seekers[rng.Intn(len(cfg.Seekers))]
		b := cfg.Seekers[rng.Intn(len(cfg.Seekers))]
		if a == b {
			b = cfg.Seekers[(rng.Intn(len(cfg.Seekers))+1)%len(cfg.Seekers)]
		}
		err = target.Befriend(rctx, a, b, 0.5)
	case kindBatch:
		reqs := make([]search.Request, cfg.BatchSize)
		for i := range reqs {
			reqs[i] = randQuery(rng, cfg)
		}
		for _, r := range target.DoBatch(rctx, reqs) {
			if r.Err != nil && err == nil {
				err = r.Err
			}
		}
	default:
		_, err = target.Do(rctx, randQuery(rng, cfg))
	}
	lat := time.Since(start)

	switch {
	case err == nil:
		hist.Observe(lat)
		if lat <= cfg.SLO {
			cnt.ok.Add(1)
		} else {
			cnt.late.Add(1)
		}
	case errors.Is(err, search.ErrOverloaded):
		cnt.shed.Add(1)
	case errors.Is(err, search.ErrUnavailable):
		cnt.unavailable.Add(1)
	case errors.Is(err, search.ErrInvalid):
		cnt.invalid.Add(1)
	case rctx.Err() != nil:
		hist.Observe(lat) // a timeout consumed a full budget of latency
		cnt.timeout.Add(1)
	default:
		cnt.other.Add(1)
	}
}

func randQuery(rng *rand.Rand, cfg Config) search.Request {
	req := search.Request{
		Seeker: cfg.Seekers[rng.Intn(len(cfg.Seekers))],
		K:      cfg.K,
	}
	if len(cfg.Tags) > 0 {
		req.Tags = []string{cfg.Tags[rng.Intn(len(cfg.Tags))]}
	}
	return req
}

func buildReport(cfg Config, elapsed time.Duration, offered int64, cnt *counters, hist *metrics.Histogram) Report {
	snap := hist.Snapshot()
	r := Report{
		QPS:      cfg.QPS,
		Duration: elapsed,
		SLO:      cfg.SLO,
		Offered:  offered,
		Sent:     cnt.sent.Load(),
		Dropped:  cnt.dropped.Load(),

		OK:          cnt.ok.Load(),
		Late:        cnt.late.Load(),
		Shed:        cnt.shed.Load(),
		Unavailable: cnt.unavailable.Load(),
		Invalid:     cnt.invalid.Load(),
		Timeout:     cnt.timeout.Load(),
		OtherErrors: cnt.other.Load(),

		P50: snap.P50, P99: snap.P99, P999: snap.P999, Max: snap.Max,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		r.Goodput = float64(r.OK) / secs
	}
	if r.Sent > 0 {
		r.ShedPct = 100 * float64(r.Shed) / float64(r.Sent)
	}
	return r
}

// Sweep runs one fixed-rate step per QPS value and returns the
// throughput-at-SLO curve. A ctx cancellation mid-sweep returns the
// steps completed so far with the error.
func Sweep(ctx context.Context, target Target, base Config, qps []float64) ([]Report, error) {
	out := make([]Report, 0, len(qps))
	for _, q := range qps {
		cfg := base
		cfg.QPS = q
		rep, err := Run(ctx, target, cfg)
		out = append(out, rep)
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// FindCapacity ramps the offered rate multiplicatively (×2 from
// startQPS) until a step stops being healthy — goodput below 90% of
// offered, or p99 above the SLO — and returns the last healthy step's
// rate (and its report). It is the calibration half of an overload
// test: drive 2× the returned capacity and the target must shed.
func FindCapacity(ctx context.Context, target Target, base Config, startQPS float64) (float64, Report, error) {
	if startQPS <= 0 {
		startQPS = 50
	}
	var (
		lastGood    float64
		lastGoodRep Report
	)
	for q := startQPS; ; q *= 2 {
		cfg := base
		cfg.QPS = q
		rep, err := Run(ctx, target, cfg)
		if err != nil {
			return lastGood, lastGoodRep, err
		}
		healthy := rep.P99 <= cfg.SLO && float64(rep.OK) >= 0.9*float64(rep.Offered)
		if !healthy {
			if lastGood == 0 {
				// Even the first step failed: report it as the capacity
				// estimate so callers can still scale from something.
				return q, rep, nil
			}
			return lastGood, lastGoodRep, nil
		}
		lastGood, lastGoodRep = q, rep
		if q >= 1e6 {
			return lastGood, lastGoodRep, nil
		}
	}
}

package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

const (
	// setupRepeats set-ups are timed per run and setup_s is their median:
	// one corpus generation lasts under two seconds, too short for a
	// single sample to be steady. The last one serves the run.
	setupRepeats = 3
	// setupBursts bursts of the reference kernel run before and after
	// each set-up.
	setupBursts = 2
	// writeSLOMS is the write latency limit behind slo_ok_share, about 4×
	// the write p50 measured on the commit that added the benchmark. The
	// write that waits out a compaction misses it by design.
	writeSLOMS = 2.8
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// names with their direction and bound; a test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"read_p50_ms", "ms"},
	{"slo_ok_share", "share"},
	{"cpu_us_per_op", "us"},
	{"allocs_per_op", "count"},
	{"heap_live_mb", "MB"},
	{"rss_peak_mb", "MB"},
}

// bench is one booted system under test with its load client.
type bench struct {
	corpus *corpus
	st     *stack
	hc     *http.Client
	gen    *generator
	cal    *calibration
}

// setupTimes splits one set-up for the ledger.
type setupTimes struct {
	generate, restore, boot, warm, total time.Duration
}

// setUp is everything before the clock starts: generate the corpus,
// boot the fleet, drain the warm-up list, collect garbage. It neither
// sleeps nor polls.
func setUp(cfg config, cal *calibration) (*bench, setupTimes, error) {
	var ts setupTimes
	t0 := time.Now()
	c := cfg.corpus
	if c == nil {
		var err error
		if c, err = buildCorpus(); err != nil {
			return nil, ts, err
		}
	}
	ts.generate = time.Since(t0)
	dir, err := os.MkdirTemp("", "fleetbench-replog-")
	if err != nil {
		return nil, ts, err
	}
	st, bt, err := newStack(c, dir, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, ts, err
	}
	ts.restore, ts.boot = bt.restore, bt.boot
	b := &bench{corpus: c, st: st, hc: newLoadClient(), gen: newGenerator(c, cfg.w, cfg.seed), cal: cal}
	tw := time.Now()
	warm := runLoop(st, b.hc, b.gen.warmup(), false, time.Time{}, nil)
	if i := warm.firstFailure(); i >= 0 {
		b.close()
		return nil, ts, fmt.Errorf("warm-up request %d failed", i)
	}
	ts.warm = time.Since(tw)
	runtime.GC()
	ts.total = time.Since(t0)
	return b, ts, nil
}

func (b *bench) close() {
	b.hc.CloseIdleConnections()
	b.st.close()
}

// tally is the outcome of one drained list, by op type. Latencies are
// in milliseconds.
type tally struct {
	attempted, failed int
	sloOK             int
	reads, writes     []float64 // answered ops
	flushes           []float64 // heartbeats
}

// tallyLoop counts a loop's requests. wrong lists the ops the oracle
// rejected; they count as failed, as do transport errors and non-2xx
// replies, and a failed op misses the latency limit. The limits are in
// reference time, so scale (calibration.scale) converts each latency
// before it is held against them.
func tallyLoop(w workload, ops []op, res *loopResult, wrong []int, scale float64) tally {
	bad := make(map[int]bool, len(wrong))
	for _, i := range wrong {
		bad[i] = true
	}
	var t tally
	for i := range ops {
		k, l := ops[i].kind, ms(res.lat[i])
		if k == opFlush {
			t.flushes = append(t.flushes, l)
			continue
		}
		t.attempted++
		if res.failed[i] || bad[i] {
			t.failed++
			continue
		}
		limit := w.sloMS
		if k.isWrite() {
			t.writes = append(t.writes, l)
			limit = writeSLOMS
		} else {
			t.reads = append(t.reads, l)
		}
		if l*scale <= limit {
			t.sloOK++
		}
	}
	return t
}

// runEndToEnd is the untraced run: setupRepeats set-ups, one timed
// drain of the fixed op list, the oracle's verdict, and the end-to-end
// metrics.
func runEndToEnd(cfg config) (result, error) {
	cal := newCalibration()
	var b *bench
	var setups []float64 // reference seconds
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		from := len(cal.bursts)
		for k := 0; k < setupBursts; k++ {
			cal.burst()
		}
		var ts setupTimes
		var err error
		if b, ts, err = setUp(cfg, cal); err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		for k := 0; k < setupBursts; k++ {
			cal.burst()
		}
		// Each set-up is scaled by the bursts on either side of it.
		setups = append(setups, ts.total.Seconds()*cal.scale(from, len(cal.bursts)))
	}
	defer b.close()
	phaseFrom := len(cal.bursts) - setupBursts

	ops := b.gen.ops(cfg.opCount())
	res := runLoop(b.st, b.hc, ops, !cfg.w.churn, time.Time{}, cal)

	// The clock has stopped; everything below is checking. Two
	// collections: the first only moves sync.Pool contents to the
	// victim cache.
	runtime.GC()
	runtime.GC()
	heapLive := readUsage().heapLiveMB
	wrong, probeAsked, probeWrong, err := verify(b, cfg.w, ops, res)
	if err != nil {
		return result{}, err
	}
	scale := cal.scale(phaseFrom, len(cal.bursts))
	t := tallyLoop(cfg.w, ops, res, wrong, scale)

	reads := sorted(t.reads)
	nOps := float64(t.attempted)
	values := map[string]float64{
		// Already in reference seconds; undo what report will do.
		"setup_s":          median(setups) / scale,
		"throughput_ops_s": float64(t.attempted-t.failed) / res.wall().Seconds(),
		"read_p50_ms":      quantile(reads, 0.5),
		"slo_ok_share":     float64(t.sloOK) / nOps,
		"cpu_us_per_op":    res.delta(func(u usage) float64 { return us(u.cpu) }) / nOps,
		"allocs_per_op":    res.delta(func(u usage) float64 { return float64(u.mallocs) }) / nOps,
		"heap_live_mb":     heapLive,
		"rss_peak_mb":      rssPeakMB(),
	}

	out := cfg.out
	fmt.Fprintf(out, "timed phase: %d ops in %.3f s by %d closed-loop clients; set-ups %.3f reference s\n",
		len(ops), res.wall().Seconds(), loadClients, setups)
	printCounts(out, t, res, wrong, probeAsked, probeWrong)
	fmt.Fprintf(out, "reads: %d samples, highest supported tail p%g; writes: %d samples, p50 %.3f ms; heartbeats: %d, p50 %.1f ms\n",
		len(reads), 100*highestTail(len(reads)), len(t.writes), median(t.writes), len(t.flushes), median(t.flushes))
	fmt.Fprintf(out, "reference kernel: %d bursts; times below are wall times × %.4f, that is reference time\n", len(cal.bursts), scale)
	return result{
		Correct:   t.failed == 0 && probeWrong == 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   report(out, endToEndMetrics, values, scale),
	}, nil
}

// verify checks the run's answers after the clock stopped. Read-only
// workloads compare the retained replies byte for byte. mixed_churn's
// answers depend on which heartbeat a read raced, so instead the fleet
// is quiesced (one last heartbeat), the oracle folds the replication
// log, and a fixed probe must then agree.
func verify(b *bench, w workload, ops []op, res *loopResult) (wrong []int, probeAsked, probeWrong int, err error) {
	o, err := newOracle(b.corpus)
	if err != nil {
		return nil, 0, 0, err
	}
	if !w.churn {
		wrong, err = o.checkKept(ops, res)
		return wrong, 0, 0, err
	}
	b.st.flush(context.Background())
	if err := o.fold(b.st); err != nil {
		return nil, 0, 0, err
	}
	probeAsked, probeWrong, err = o.probe(b.st, b.hc, ops)
	return nil, probeAsked, probeWrong, err
}

// printCounts reports how many ops a run attempted and how the oracle
// judged them.
func printCounts(out io.Writer, t tally, res *loopResult, wrong []int, probeAsked, probeWrong int) {
	kept := 0
	for _, k := range res.kept {
		if k != nil {
			kept++
		}
	}
	fmt.Fprintf(out, "attempted=%d succeeded=%d failed=%d (oracle checked %d replies, %d wrong; quiesced probe %d asked, %d wrong)\n",
		t.attempted, t.attempted-t.failed, t.failed, kept, len(wrong), probeAsked, probeWrong)
}

// rssPeakMB reads the process's peak resident set (VmHWM) from
// /proc/self/status; 0 where that file does not exist.
func rssPeakMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

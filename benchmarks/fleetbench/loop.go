package main

import (
	"bytes"
	"context"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// loadClients closed-loop clients (each sends its next request only
	// after the previous reply) share loadClients keep-alive
	// connections: the machine has two cores, and callers that wait for
	// a reply are what a front-end's users are.
	loadClients = 2
	// checkEvery-th single reads keep their reply for the oracle; every
	// batch keeps its first entry.
	checkEvery = 64
)

// usage is the process's resource counters at one instant.
type usage struct {
	cpu        time.Duration // user + system, from getrusage
	mallocs    uint64
	gcCycles   uint32
	gcPause    time.Duration
	gcCPU      float64 // seconds, runtime/metrics
	totalCPU   float64 // seconds, runtime/metrics
	heapLiveMB float64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    m.Mallocs,
		gcCycles:   m.NumGC,
		gcPause:    time.Duration(m.PauseTotalNs),
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		heapLiveMB: float64(m.HeapAlloc) / (1 << 20),
	}
}

// span is one traced interval, recorded by the benchmark around a call
// into a layer. Times are nanoseconds since the trace began.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  string `json:"parent"`
	Request int    `json:"request"`
}

// segment is a contiguous slice of the op list, drained between bursts
// of the reference kernel.
type segment struct {
	from, to      int // ops[from:to]
	wall          time.Duration
	before, after usage
}

// loopResult is what one drained op list measured.
type loopResult struct {
	segs   []segment
	lat    []time.Duration // per op, heartbeats included
	failed []bool          // transport error or non-2xx
	kept   [][]byte        // replies retained for the oracle (nil elsewhere)
	spans  []span          // one per op when tracing, else nil
}

// wall is the time the loop spent inside its segments.
func (r *loopResult) wall() (d time.Duration) {
	for _, s := range r.segs {
		d += s.wall
	}
	return d
}

// firstFailure returns the index of the first op that failed in
// transport or status, or -1.
func (r *loopResult) firstFailure() int {
	for i, failed := range r.failed {
		if failed {
			return i
		}
	}
	return -1
}

// delta sums a counter's growth over the segments, leaving out what
// the reference kernel did between them.
func (r *loopResult) delta(counter func(usage) float64) (sum float64) {
	for _, s := range r.segs {
		sum += counter(s.after) - counter(s.before)
	}
	return sum
}

// cut splits ops into the segments the reference kernel runs between:
// one per heartbeat cycle if the list has heartbeats, else phaseBursts
// equal parts.
func cut(ops []op) []segment {
	var segs []segment
	from := 0
	for i, o := range ops {
		if o.kind == opFlush {
			segs = append(segs, segment{from: from, to: i + 1})
			from = i + 1
		}
	}
	if len(segs) == 0 {
		for k := 0; k < phaseBursts; k++ {
			if to := len(ops) * (k + 1) / phaseBursts; to > from {
				segs = append(segs, segment{from: from, to: to})
				from = to
			}
		}
	} else if from < len(ops) {
		segs = append(segs, segment{from: from, to: len(ops)})
	}
	return segs
}

// newLoadClient returns the load generator's HTTP client.
func newLoadClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        loadClients,
		MaxIdleConnsPerHost: loadClients,
		MaxConnsPerHost:     loadClients,
	}}
}

// runLoop drains ops with loadClients closed-loop clients that share one
// cursor. The work is fixed by the list, not by the clock: every run of
// the same list does the same requests in (nearly) the same order. With
// cal set, the list is drained segment by segment with bursts of the
// reference kernel in between (at least phaseBursts in all); without,
// it is one segment. With traceEpoch non-zero each op is also recorded
// as a span.
func runLoop(st *stack, hc *http.Client, ops []op, keep bool, traceEpoch time.Time, cal *calibration) *loopResult {
	res := &loopResult{
		segs:   []segment{{to: len(ops)}},
		lat:    make([]time.Duration, len(ops)),
		failed: make([]bool, len(ops)),
		kept:   make([][]byte, len(ops)),
	}
	if cal != nil {
		res.segs = cut(ops)
	}
	tracing := !traceEpoch.IsZero()
	if tracing {
		res.spans = make([]span, len(ops))
	}
	var urls [opFlush]string
	for k := opRead; k < opFlush; k++ {
		urls[k] = st.frontURL + k.path()
	}
	ctx := context.Background()

	client := func(cursor *atomic.Int64, to int, buf *bytes.Buffer) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= to {
				return
			}
			o := &ops[i]
			t0 := time.Now()
			if o.kind == opFlush {
				st.flush(ctx)
			} else {
				ok := post(hc, urls[o.kind], o.body, buf)
				res.failed[i] = !ok
				if ok && keep {
					res.kept[i] = keepReply(o.kind, i, buf.Bytes())
				}
			}
			end := time.Now()
			res.lat[i] = end.Sub(t0)
			if tracing {
				res.spans[i] = span{
					Name: "client." + o.kind.name(), Request: i,
					Start: int64(t0.Sub(traceEpoch)), End: int64(end.Sub(traceEpoch)),
				}
			}
		}
	}

	runtime.GC()
	var bufs [loadClients]bytes.Buffer
	burstsPerGap := (phaseBursts + len(res.segs) - 1) / len(res.segs)
	for k := range res.segs {
		seg := &res.segs[k]
		for b := 0; cal != nil && b < burstsPerGap; b++ {
			cal.burst()
		}
		seg.before = readUsage()
		var cursor atomic.Int64
		cursor.Store(int64(seg.from))
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < loadClients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				client(&cursor, seg.to, &bufs[c])
			}()
		}
		wg.Wait()
		seg.wall = time.Since(start)
		seg.after = readUsage()
	}
	if cal != nil {
		cal.burst()
	}
	return res
}

// post sends one request and reads the whole reply into buf. It
// reports whether the reply was a 2xx.
func post(hc *http.Client, url string, body []byte, buf *bytes.Buffer) bool {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return false
	}
	return resp.StatusCode/100 == 2
}

// keepReply copies what the oracle will compare: the whole reply of
// every checkEvery-th single read, the first entry of every batch.
func keepReply(kind opKind, i int, reply []byte) []byte {
	switch {
	case kind == opRead && i%checkEvery == 0:
		return append([]byte(nil), reply...)
	case kind == opBatch:
		return append([]byte(nil), firstBatchEntry(reply)...)
	}
	return nil
}

// firstBatchEntry cuts the first entry out of a /v2/search/batch reply,
// {"results":[{"results":[...]},...]}, without decoding the other 63.
// Item names hold no brackets, so the entry ends at the first "]}". A
// reply of another shape comes back whole and fails the comparison.
func firstBatchEntry(reply []byte) []byte {
	const prefix = `{"results":[`
	if !bytes.HasPrefix(reply, []byte(prefix)) {
		return reply
	}
	rest := reply[len(prefix):]
	end := bytes.Index(rest, []byte(`]}`))
	if end < 0 {
		return reply
	}
	return rest[:end+2]
}

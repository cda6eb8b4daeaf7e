package loadgen

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/search"
)

// stubTarget answers instantly with a canned outcome per class.
type stubTarget struct {
	calls   atomic.Int64
	writes  atomic.Int64
	batches atomic.Int64
	err     error
	delay   time.Duration
}

func (s *stubTarget) Do(ctx context.Context, req search.Request) (search.Response, error) {
	s.calls.Add(1)
	if s.delay > 0 {
		select {
		case <-time.After(s.delay):
		case <-ctx.Done():
			return search.Response{}, ctx.Err()
		}
	}
	if s.err != nil {
		return search.Response{}, s.err
	}
	return search.Response{Results: []search.Result{{Item: "x", Score: 1}}}, nil
}

func (s *stubTarget) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	s.batches.Add(1)
	out := make([]search.BatchResult, len(reqs))
	for i := range out {
		resp, err := s.Do(ctx, reqs[i])
		out[i] = search.BatchResult{Response: resp, Err: err}
	}
	return out
}

func (s *stubTarget) Befriend(ctx context.Context, a, b string, w float64) error {
	s.writes.Add(1)
	return s.err
}

func (s *stubTarget) Tag(ctx context.Context, user, item, tag string) error {
	s.writes.Add(1)
	return s.err
}

func baseCfg(qps float64) Config {
	return Config{
		QPS:      qps,
		Duration: 300 * time.Millisecond,
		SLO:      50 * time.Millisecond,
		Seekers:  []string{"alice", "bob"},
		Tags:     []string{"pizza"},
	}
}

func TestRunOffersAtConfiguredRate(t *testing.T) {
	st := &stubTarget{}
	rep, err := Run(context.Background(), st, baseCfg(200))
	if err != nil {
		t.Fatal(err)
	}
	// 200 QPS for 0.3s = 60 arrivals; allow generous scheduling slack.
	if rep.Offered < 40 || rep.Offered > 80 {
		t.Fatalf("Offered = %d, want ~60", rep.Offered)
	}
	if rep.Sent != rep.Offered || rep.Dropped != 0 {
		t.Fatalf("Sent=%d Dropped=%d, want all offered sent", rep.Sent, rep.Dropped)
	}
	if rep.OK != rep.Sent {
		t.Fatalf("OK = %d of %d: instant stub should always be on SLO", rep.OK, rep.Sent)
	}
	if rep.Goodput <= 0 || rep.P99 <= 0 {
		t.Fatalf("report missing goodput/quantiles: %+v", rep)
	}
}

func TestRunClassifiesSheds(t *testing.T) {
	st := &stubTarget{err: search.Overloadedf(time.Second, "shed")}
	rep, err := Run(context.Background(), st, baseCfg(100))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Shed != rep.Sent || rep.OK != 0 {
		t.Fatalf("Shed=%d Sent=%d OK=%d, want all shed", rep.Shed, rep.Sent, rep.OK)
	}
	if rep.ShedPct < 99 {
		t.Fatalf("ShedPct = %v, want ~100", rep.ShedPct)
	}
}

func TestOpenLoopKeepsOfferingWhenTargetStalls(t *testing.T) {
	// A closed-loop harness with one worker would offer ~1 request per
	// delay; the open loop must keep offering at the arrival rate and
	// count the overflowing arrivals as dropped once the cap is hit.
	st := &stubTarget{delay: time.Second}
	cfg := baseCfg(200)
	cfg.Timeout = 2 * time.Second
	cfg.MaxOutstanding = 10
	rep, err := Run(context.Background(), st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offered < 40 {
		t.Fatalf("Offered = %d: arrival loop throttled by the stalled target", rep.Offered)
	}
	if rep.Dropped == 0 {
		t.Fatal("Dropped = 0: overflow past MaxOutstanding must be accounted, not hidden")
	}
	if rep.Offered != rep.Sent+rep.Dropped {
		t.Fatalf("Offered %d != Sent %d + Dropped %d", rep.Offered, rep.Sent, rep.Dropped)
	}
}

func TestWriteMixReachesMutations(t *testing.T) {
	st := &stubTarget{}
	cfg := baseCfg(300)
	cfg.Mix = Mix{Read: 1, Write: 1, Batch: 1}
	cfg.BatchSize = 2
	rep, err := Run(context.Background(), st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.writes.Load() == 0 || st.batches.Load() == 0 {
		t.Fatalf("mix not exercised: writes=%d batches=%d", st.writes.Load(), st.batches.Load())
	}
	if rep.OK == 0 {
		t.Fatalf("no successes: %+v", rep)
	}
}

func TestSweepProducesOneReportPerStep(t *testing.T) {
	st := &stubTarget{}
	cfg := baseCfg(0)
	cfg.Duration = 100 * time.Millisecond
	reps, err := Sweep(context.Background(), st, cfg, []float64{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].QPS != 50 || reps[1].QPS != 100 {
		t.Fatalf("sweep = %+v, want steps at 50 and 100", reps)
	}
}

func TestConfigValidation(t *testing.T) {
	st := &stubTarget{}
	if _, err := Run(context.Background(), st, Config{Duration: time.Second, Seekers: []string{"a"}}); err == nil {
		t.Error("zero QPS accepted")
	}
	if _, err := Run(context.Background(), st, Config{QPS: 10, Seekers: []string{"a"}}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := Run(context.Background(), st, Config{QPS: 10, Duration: time.Second}); err == nil {
		t.Error("empty corpus accepted")
	}
}

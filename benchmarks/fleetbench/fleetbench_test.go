package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"sync"
	"testing"
)

var (
	corpusOnce sync.Once
	sharedC    *corpus
	corpusErr  error
)

// testCorpus generates the corpus once for the whole test binary.
func testCorpus(t *testing.T) *corpus {
	t.Helper()
	corpusOnce.Do(func() { sharedC, corpusErr = buildCorpus() })
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return sharedC
}

func opBytes(ops []op) []byte {
	var b bytes.Buffer
	for _, o := range ops {
		b.WriteByte(byte(o.kind))
		b.Write(o.body)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func TestOpListsRepeatBySeed(t *testing.T) {
	c := testCorpus(t)
	for _, w := range workloads {
		list := func(seed int64) []byte {
			g := newGenerator(c, w, seed)
			return append(opBytes(g.warmup()), opBytes(g.ops(2*cycleOps))...)
		}
		a, b, other := list(7), list(7), list(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two lists of seed 7 differ", w.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 gave the same list", w.name)
		}
	}
}

func TestChurnListShape(t *testing.T) {
	w, _ := findWorkload("mixed_churn")
	if n := w.sizeOps(20); n%cycleOps != 0 || n == 0 {
		t.Fatalf("sizeOps(20) = %d, not whole cycles of %d", n, cycleOps)
	}
	counts := map[opKind]int{}
	sinceFlush := 0
	for _, o := range newGenerator(testCorpus(t), w, 1).ops(3 * cycleOps) {
		counts[o.kind]++
		switch {
		case o.kind.isWrite():
			sinceFlush++
		case o.kind == opFlush:
			if sinceFlush != writesPerCycle {
				t.Fatalf("heartbeat after %d writes, want %d", sinceFlush, writesPerCycle)
			}
			sinceFlush = 0
		}
	}
	// 3 cycles are 38 whole blocks (4 tags and a befriend each) and 40
	// ops of a 39th, which hold 2 more tags.
	want := map[opKind]int{opFlush: 3, opBefriend: 38, opTag: 154, opRead: 3*cycleOps - 3*writesPerCycle}
	for k, n := range want {
		if counts[k] != n {
			t.Errorf("%d ops of kind %s, want %d", counts[k], k.name(), n)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, {999, 0.99, false}, {10000, 0.999, true}, {9999, 0.999, false}, {100, 0.9, true}, {99, 0.9, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 0.5}, {100, 0.9}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	// Nearest rank: exactly ten samples (991..1000) lie beyond p99.
	for q, want := range map[float64]float64{0.5: 500, 0.99: 990, 1: 1000, 0: 1} {
		if got := quantile(asc, q); got != want {
			t.Errorf("quantile(1..1000, %g) = %g, want %g", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %g, want 0", got)
	}
}

func TestSelfTimesSumToOutermost(t *testing.T) {
	medians := []float64{500, 420, 400, 380, 120, 90}
	self := selfTimes(medians)
	want := []float64{80, 20, 20, 260, 30, 90}
	sum := 0.0
	for i := range self {
		if math.Abs(self[i]-want[i]) > 1e-9 {
			t.Errorf("self[%d] = %g, want %g", i, self[i], want[i])
		}
		sum += self[i]
	}
	if math.Abs(sum-medians[0]) > 1e-9 {
		t.Errorf("self times sum to %g, want the outermost median %g", sum, medians[0])
	}
	// An inner boundary slower than its parent shows as a negative self
	// time, not as a clamped zero that would hide the inversion.
	if got := selfTimes([]float64{10, 12})[0]; got != -2 {
		t.Errorf("inverted boundary: self = %g, want -2", got)
	}
}

func TestFirstBatchEntry(t *testing.T) {
	reply := []byte(`{"results":[{"results":[{"item":"i1","score":1}]},{"results":[]}]}` + "\n")
	if got, want := string(firstBatchEntry(reply)), `{"results":[{"item":"i1","score":1}]}`; got != want {
		t.Errorf("firstBatchEntry = %s, want %s", got, want)
	}
	if got := firstBatchEntry([]byte(`{"error":"x"}`)); string(got) != `{"error":"x"}` {
		t.Errorf("a reply of another shape must come back whole, got %s", got)
	}
}

// benchmarkJSON is the part of ../../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func sameDefs(t *testing.T, what string, got []struct{ Name, Unit string }, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("BENCHMARK.json lists %d %s metrics, the program prints %d", len(got), what, len(want))
	}
	for i, d := range want {
		if got[i].Name != d.name || got[i].Unit != d.unit {
			t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the program %s [%s]", what, i, got[i].Name, got[i].Unit, d.name, d.unit)
		}
	}
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	sameDefs(t, "end_to_end", bj.EndToEnd, endToEndMetrics)
	sameDefs(t, "per_layer", bj.PerLayer, perLayerMetrics)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
}

// checkResult validates one run's result against the metric list it
// must carry.
func checkResult(t *testing.T, name string, res result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 200 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", name, d.name, m, ok, d.unit)
		}
	}
}

// TestSmokeEndToEnd drains 200 ops of every workload through the real
// stack and checks the answers and the metric names.
func TestSmokeEndToEnd(t *testing.T) {
	c := testCorpus(t)
	for _, w := range workloads {
		res, err := runEndToEnd(config{w: w, seed: 3, seconds: 1, ops: 200, corpus: c, out: io.Discard})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, w.name, res, endToEndMetrics)
		for _, m := range endToEndMetrics {
			if res.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, m.name, res.Metrics[m.name].Value)
			}
		}
	}
}

// TestSmokeLedger runs the traced run on one workload: every per-layer
// metric must come out, and the ladder must separate hits from misses.
func TestSmokeLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("the ledger's fixed probes compact the corpus several times (~10 s)")
	}
	w, _ := findWorkload("read_hot")
	t.Setenv("TMPDIR", t.TempDir())
	res, err := runLedger(config{w: w, seed: 3, seconds: 1, ops: 400, corpus: testCorpus(t), out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w.name, res, perLayerMetrics)
	if hit := res.Metrics["qcache.hit_ratio"].Value; hit < 0.99 {
		t.Errorf("read_hot hit ratio %g, want >= 0.99", hit)
	}
	if hit, miss := res.Metrics["social.do_hit_us"].Value, res.Metrics["social.do_miss_us"].Value; miss < 2*hit {
		t.Errorf("a miss (%g us) should cost well over a hit (%g us)", miss, hit)
	}
}

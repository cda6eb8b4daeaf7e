package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServingCachedSearch-8   	     500	   2100000 ns/op	    1000 B/op	      10 allocs/op
BenchmarkServingCachedSearch-8   	     500	   2000000 ns/op	    1000 B/op	      10 allocs/op
BenchmarkServingCachedSearch-8   	     480	   2300000 ns/op	    1000 B/op	      10 allocs/op
BenchmarkServingBatchSearch-8    	    1000	   1200000 ns/op
BenchmarkServingMutationChurnEdgeScoped 	      20	    184758 ns/op	         0.8929 hit-rate
PASS
ok  	repro	12.3s
`

func TestParseBench(t *testing.T) {
	samples, allocs, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(samples["BenchmarkServingCachedSearch"]); got != 3 {
		t.Fatalf("cached samples = %d, want 3", got)
	}
	if got := median(samples["BenchmarkServingCachedSearch"]); got != 2100000 {
		t.Fatalf("cached median = %g, want 2100000", got)
	}
	if got := samples["BenchmarkServingMutationChurnEdgeScoped"]; len(got) != 1 || got[0] != 184758 {
		t.Fatalf("churn samples = %v", got)
	}
	if _, ok := samples["PASS"]; ok {
		t.Fatal("non-benchmark lines parsed")
	}
	if got := allocs["BenchmarkServingCachedSearch"]; len(got) != 3 || median(got) != 10 {
		t.Fatalf("cached alloc samples = %v, want three 10s", got)
	}
	// No -benchmem fields on the batch line: no alloc samples.
	if got, ok := allocs["BenchmarkServingBatchSearch"]; ok {
		t.Fatalf("batch alloc samples = %v, want none", got)
	}
}

func TestGate(t *testing.T) {
	samples, _, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	base := Baseline{Benchmarks: map[string]float64{
		"BenchmarkServingCachedSearch": 2000000, // +5% observed: within a 15% budget
		"BenchmarkServingBatchSearch":  1150000, // +4.3%
	}}
	verdicts, failed := gate(base, samples, 15)
	if failed {
		t.Fatalf("within-threshold run failed the gate: %+v", verdicts)
	}
	for _, v := range verdicts {
		if v.slow {
			t.Fatalf("within-threshold benchmark reported slow: %+v", v)
		}
	}

	// A median past the threshold is reported, not failed: the baseline
	// is another day's run.
	base.Benchmarks["BenchmarkServingBatchSearch"] = 1000000 // +20% observed
	verdicts, failed = gate(base, samples, 15)
	if failed {
		t.Fatal("an absolute 20% slowdown failed the gate")
	}
	var slowNames []string
	for _, v := range verdicts {
		if v.slow {
			slowNames = append(slowNames, v.name)
		}
	}
	if len(slowNames) != 1 || slowNames[0] != "BenchmarkServingBatchSearch" {
		t.Fatalf("slow benchmarks = %v", slowNames)
	}

	// A baselined benchmark missing from the input must fail the gate.
	base = Baseline{Benchmarks: map[string]float64{"BenchmarkDeleted": 100}}
	if _, failed := gate(base, samples, 15); !failed {
		t.Fatal("missing baselined benchmark passed the gate")
	}

	// Un-baselined benchmarks are informational only.
	base = Baseline{Benchmarks: map[string]float64{"BenchmarkServingBatchSearch": 1200000}}
	verdicts, failed = gate(base, samples, 15)
	if failed {
		t.Fatalf("informational extras failed the gate: %+v", verdicts)
	}
	news := 0
	for _, v := range verdicts {
		if v.newBench {
			news++
		}
	}
	if news != 2 {
		t.Fatalf("new benchmarks reported = %d, want 2", news)
	}
}

// TestCheckGatesWithinRunNumbersOnly: a machine half again as slow as
// the baseline's moves every absolute median past the threshold, and
// the run still passes while its ratio, overhead and allocs hold; a
// broken ratio in the same run fails it.
func TestCheckGatesWithinRunNumbersOnly(t *testing.T) {
	base := Baseline{
		Benchmarks: map[string]float64{
			"BenchmarkCached": 200, "BenchmarkCold": 1000,
			"BenchmarkLoopback": 3000, "BenchmarkBatch": 1000,
		},
		Ratios:    []RatioGate{{Name: "cached-vs-cold", Num: "BenchmarkCached", Den: "BenchmarkCold", Max: 0.7}},
		Overheads: []OverheadGate{{Name: "hop", Of: "BenchmarkLoopback", Over: "BenchmarkBatch"}},
		Allocs:    map[string]float64{"BenchmarkCached": 0},
	}
	// Every median at least 50% slower. The hop's operands both gain
	// 1500 ns, so the hop itself costs what it did.
	samples := map[string][]float64{
		"BenchmarkCached":   {300, 310, 290},
		"BenchmarkCold":     {1500, 1490, 1510},
		"BenchmarkLoopback": {4500, 4490, 4510},
		"BenchmarkBatch":    {2500, 2490, 2510},
	}
	allocs := map[string][]float64{"BenchmarkCached": {0, 0, 0}}
	lines, failed := check(base, samples, allocs, 15)
	if failed {
		t.Fatalf("absolute slowdowns with every within-run gate in bounds failed:\n%s", strings.Join(lines, "\n"))
	}
	if infos := strings.Count(strings.Join(lines, "\n"), "INFO "); infos != 4 {
		t.Fatalf("%d INFO lines, want one per slower benchmark:\n%s", infos, strings.Join(lines, "\n"))
	}

	samples["BenchmarkCached"] = []float64{1200, 1210, 1190} // 0.8 of cold
	if lines, failed := check(base, samples, allocs, 15); !failed {
		t.Fatalf("a ratio over its limit passed:\n%s", strings.Join(lines, "\n"))
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Fatalf("even median = %g", got)
	}
}

func TestGateAllocs(t *testing.T) {
	_, allocs, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	// Exactly at baseline: passes.
	base := Baseline{Allocs: map[string]float64{"BenchmarkServingCachedSearch": 10}}
	if lines, failed := gateAllocs(base, allocs); failed {
		t.Fatalf("at-baseline allocs failed the gate: %v", lines)
	}
	// Shrinking is fine.
	base.Allocs["BenchmarkServingCachedSearch"] = 12
	if lines, failed := gateAllocs(base, allocs); failed {
		t.Fatalf("shrunk allocs failed the gate: %v", lines)
	}
	// Any growth fails — no percentage budget.
	base.Allocs["BenchmarkServingCachedSearch"] = 9
	if _, failed := gateAllocs(base, allocs); !failed {
		t.Fatal("grown allocs passed the strict gate")
	}
	// A gated benchmark with no allocs/op data in the input fails
	// (the bench must run with -benchmem).
	base = Baseline{Allocs: map[string]float64{"BenchmarkServingBatchSearch": 0}}
	if _, failed := gateAllocs(base, allocs); !failed {
		t.Fatal("missing allocs/op data passed the gate")
	}
}

func TestGateRatios(t *testing.T) {
	samples := map[string][]float64{
		"BenchmarkA": {200, 210, 190},
		"BenchmarkB": {400, 390, 410},
	}
	base := Baseline{Ratios: []RatioGate{{Name: "a-vs-b", Num: "BenchmarkA", Den: "BenchmarkB", Max: 0.6}}}
	if lines, failed := gateRatios(base, samples); failed {
		t.Fatalf("ratio 0.5 failed a 0.6 limit: %v", lines)
	}
	base.Ratios[0].Max = 0.4
	if _, failed := gateRatios(base, samples); !failed {
		t.Fatal("ratio 0.5 passed a 0.4 limit")
	}
	base.Ratios[0].Num = "BenchmarkMissing"
	if _, failed := gateRatios(base, samples); !failed {
		t.Fatal("missing ratio operand passed")
	}
}

func TestGateOverheads(t *testing.T) {
	// The hop costs 1000 on top of the batch it carries.
	base := Baseline{
		Benchmarks: map[string]float64{"BenchmarkLoopback": 1500, "BenchmarkBatch": 500},
		Overheads:  []OverheadGate{{Name: "hop", Of: "BenchmarkLoopback", Over: "BenchmarkBatch"}},
	}
	// The shared work got 2.5× faster and the hop did not move: the
	// ratio of the two went from 3 to 6, the overhead is where it was.
	samples := map[string][]float64{"BenchmarkLoopback": {1210, 1190, 1200}, "BenchmarkBatch": {200, 190, 210}}
	if lines, failed := gateOverheads(base, samples, 15); failed {
		t.Fatalf("an unchanged overhead failed the gate: %v", lines)
	}
	// The hop itself 20% dearer, hidden in a total that got cheaper.
	samples["BenchmarkLoopback"] = []float64{1400, 1410, 1390}
	if _, failed := gateOverheads(base, samples, 15); !failed {
		t.Fatal("a 20% dearer overhead passed a 15% gate")
	}
	// A baseline whose medians leave no overhead to compare against.
	noHop := Baseline{Benchmarks: map[string]float64{"BenchmarkLoopback": 500, "BenchmarkBatch": 500}, Overheads: base.Overheads}
	if _, failed := gateOverheads(noHop, samples, 15); !failed {
		t.Fatal("a baseline with a non-positive overhead passed")
	}
	delete(samples, "BenchmarkBatch")
	if _, failed := gateOverheads(base, samples, 15); !failed {
		t.Fatal("a missing operand passed")
	}
}

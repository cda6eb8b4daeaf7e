// Command benchgate is the CI benchmark-regression gate: it parses
// `go test -bench` output (ideally -count=5 or more), reduces each
// benchmark's ns/op and allocs/op samples to their median, and checks
// them against a checked-in JSON baseline.
//
//	go test -run xxx -bench Serving -benchmem -count 5 . | tee bench.txt
//	benchgate -baseline BENCH_baseline.json -input bench.txt
//	benchgate -baseline BENCH_baseline.json -input bench.txt -update   # refresh the baseline
//
// It fails on what the code decides, whatever machine runs it: a ratio
// of two medians from the same run over its limit, an overhead (one
// median minus another) grown past the threshold, any allocs/op growth,
// or a baselined benchmark missing from the input. An absolute ns/op
// median compared with one recorded on another day measures the
// machine as much as the code, so those comparisons print as INFO and
// never fail. Medians rather than single runs keep one scheduler hiccup
// from deciding anything; benchmarks the baseline does not name are
// reported until -update adds them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
)

// Baseline is the checked-in BENCH_baseline.json format.
type Baseline struct {
	// Note documents provenance (host, date, command) for humans.
	Note string `json:"note,omitempty"`
	// Benchmarks maps benchmark name (without the -GOMAXPROCS suffix)
	// to its accepted median ns/op. Comparing the input with these is
	// absolute and therefore hardware-sensitive, so it is informational;
	// what fails is a listed benchmark missing from the input. The
	// values are also the reference points of the Overheads.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Ratios are hardware-independent invariants: each requires
	// median(Num)/median(Den) <= Max. Use them to pin relationships
	// (e.g. "the edge-scoped churn path stays faster than the
	// global-generation one") that hold on any machine. Ratios are
	// never touched by -update.
	Ratios []RatioGate `json:"ratios,omitempty"`
	// Overheads gate what one benchmark costs on top of another doing
	// the same work — median(Of) − median(Over) — against the same
	// difference of the baselined medians, under the ns/op threshold. A
	// ratio of the two would also move when the shared work gets
	// faster; the difference moves only when the extra layer does.
	// Like Ratios the list is hand-written and survives -update; its
	// reference values are the Benchmarks entries -update refreshes.
	Overheads []OverheadGate `json:"overheads,omitempty"`
	// Allocs maps benchmark name to its accepted median allocs/op
	// (requires -benchmem in the bench command). Unlike ns/op these are
	// gated strictly — ANY growth fails, with no percentage budget —
	// because allocation counts are deterministic properties of the
	// code, not of the hardware. Which benchmarks to gate is
	// hand-curated (like Ratios); -update refreshes the values of the
	// existing keys only.
	Allocs map[string]float64 `json:"allocs,omitempty"`
}

// RatioGate is one cross-benchmark invariant.
type RatioGate struct {
	Name string  `json:"name"`
	Num  string  `json:"num"`
	Den  string  `json:"den"`
	Max  float64 `json:"max"`
}

// OverheadGate is one "Of costs this much more than Over" invariant.
type OverheadGate struct {
	Name string `json:"name"`
	Of   string `json:"of"`
	Over string `json:"over"`
}

// benchLine matches one result line of `go test -bench` output, e.g.
//
//	BenchmarkServingCachedSearch-8   500   2100000 ns/op   12 B/op ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op`)

// allocField matches the allocs/op field -benchmem appends.
var allocField = regexp.MustCompile(`\s([0-9]+) allocs/op`)

// parseBench collects ns/op and (when -benchmem was on) allocs/op
// samples per benchmark name from go test -bench output.
func parseBench(r io.Reader) (map[string][]float64, map[string][]float64, error) {
	samples := make(map[string][]float64)
	allocs := make(map[string][]float64)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("benchgate: bad ns/op in %q: %v", sc.Text(), err)
		}
		samples[m[1]] = append(samples[m[1]], v)
		if a := allocField.FindStringSubmatch(sc.Text()); a != nil {
			n, err := strconv.ParseFloat(a[1], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("benchgate: bad allocs/op in %q: %v", sc.Text(), err)
			}
			allocs[m[1]] = append(allocs[m[1]], n)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return samples, allocs, nil
}

// median reduces samples; it panics on an empty slice (callers filter).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// verdict is one benchmark's comparison with its baseline median.
type verdict struct {
	name      string
	base, got float64 // ns/op; got < 0 when absent from the input
	deltaPct  float64
	slow      bool // over the threshold: reported, not failed
	newBench  bool
}

// gate compares medians against the baseline. Only a benchmark present
// in the baseline but missing from the input fails (a silently deleted
// benchmark must not pass): a median over the threshold is marked slow
// and reported, because the baseline's medians come from another run
// on another day. Input benchmarks without a baseline are reported too.
func gate(base Baseline, samples map[string][]float64, thresholdPct float64) ([]verdict, bool) {
	var out []verdict
	failed := false
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Benchmarks[name]
		xs, ok := samples[name]
		if !ok || len(xs) == 0 {
			out = append(out, verdict{name: name, base: want, got: -1})
			failed = true
			continue
		}
		got := median(xs)
		delta := 100 * (got - want) / want
		out = append(out, verdict{name: name, base: want, got: got, deltaPct: delta, slow: delta > thresholdPct})
	}
	var extra []string
	for name := range samples {
		if _, ok := base.Benchmarks[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, verdict{name: name, base: -1, got: median(samples[name]), newBench: true})
	}
	return out, failed
}

// gateRatios evaluates the hardware-independent ratio invariants.
func gateRatios(base Baseline, samples map[string][]float64) ([]string, bool) {
	var lines []string
	failed := false
	for _, r := range base.Ratios {
		num, okN := samples[r.Num]
		den, okD := samples[r.Den]
		if !okN || !okD || len(num) == 0 || len(den) == 0 {
			lines = append(lines, fmt.Sprintf("FAIL  ratio %s: missing %s or %s in input", r.Name, r.Num, r.Den))
			failed = true
			continue
		}
		got := median(num) / median(den)
		status := "ok   "
		if got > r.Max {
			status = "FAIL "
			failed = true
		}
		lines = append(lines, fmt.Sprintf("%s ratio %-38s %.3f (limit %.3f)", status, r.Name, got, r.Max))
	}
	return lines, failed
}

// gateOverheads evaluates the overhead invariants: each difference of
// medians may exceed the baseline's by at most thresholdPct.
func gateOverheads(base Baseline, samples map[string][]float64, thresholdPct float64) ([]string, bool) {
	var lines []string
	failed := false
	for _, o := range base.Overheads {
		of, over := samples[o.Of], samples[o.Over]
		wantOf, okOf := base.Benchmarks[o.Of]
		wantOver, okOver := base.Benchmarks[o.Over]
		if len(of) == 0 || len(over) == 0 || !okOf || !okOver {
			lines = append(lines, fmt.Sprintf("FAIL  overhead %s: %s or %s missing from the input or the baseline", o.Name, o.Of, o.Over))
			failed = true
			continue
		}
		want, got := wantOf-wantOver, median(of)-median(over)
		if want <= 0 {
			// A percentage of a non-positive overhead has the wrong sign
			// or no value: a dearer hop would read as a saving and pass.
			lines = append(lines, fmt.Sprintf("FAIL  overhead %s: the baseline's %s - %s is %.0f ns/op, not positive", o.Name, o.Of, o.Over, want))
			failed = true
			continue
		}
		delta := 100 * (got - want) / want
		status := "ok   "
		if delta > thresholdPct {
			status = "FAIL "
			failed = true
		}
		lines = append(lines, fmt.Sprintf("%s overhead %-35s %12.0f -> %12.0f ns/op (%+.1f%%, limit +%.0f%%)", status, o.Name, want, got, delta, thresholdPct))
	}
	return lines, failed
}

// gateAllocs evaluates the strict allocation gates: a baselined
// benchmark's median allocs/op may shrink but never grow, and a
// baselined benchmark whose input lacks allocation data (e.g. the
// bench ran without -benchmem) fails rather than silently passing.
func gateAllocs(base Baseline, allocs map[string][]float64) ([]string, bool) {
	var lines []string
	failed := false
	names := make([]string, 0, len(base.Allocs))
	for name := range base.Allocs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := base.Allocs[name]
		xs, ok := allocs[name]
		if !ok || len(xs) == 0 {
			lines = append(lines, fmt.Sprintf("FAIL  allocs %-38s no allocs/op in input (run with -benchmem)", name))
			failed = true
			continue
		}
		got := median(xs)
		status := "ok   "
		if got > want {
			status = "FAIL "
			failed = true
		}
		lines = append(lines, fmt.Sprintf("%s allocs %-38s %10.0f -> %10.0f allocs/op (any growth fails)", status, name, want, got))
	}
	return lines, failed
}

// check runs every gate over one run's samples and returns the report,
// ratios first and absolute medians last, and whether any gate failed.
func check(base Baseline, samples, allocs map[string][]float64, thresholdPct float64) ([]string, bool) {
	verdicts, failed := gate(base, samples, thresholdPct)
	lines, ratioFailed := gateRatios(base, samples)
	overheadLines, overheadFailed := gateOverheads(base, samples, thresholdPct)
	allocLines, allocFailed := gateAllocs(base, allocs)
	lines = append(append(lines, overheadLines...), allocLines...)
	for _, v := range verdicts {
		switch {
		case v.newBench:
			lines = append(lines, fmt.Sprintf("NEW   %-45s %12.0f ns/op (not gated; add with -update)", v.name, v.got))
		case v.got < 0:
			lines = append(lines, fmt.Sprintf("GONE  %-45s baseline %12.0f ns/op but absent from input", v.name, v.base))
		default:
			status := "ok   "
			if v.slow {
				status = "INFO "
			}
			lines = append(lines, fmt.Sprintf("%s %-45s %12.0f -> %12.0f ns/op (%+.1f%%, informational past +%.0f%%)",
				status, v.name, v.base, v.got, v.deltaPct, thresholdPct))
		}
	}
	return lines, failed || ratioFailed || overheadFailed || allocFailed
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "checked-in baseline JSON")
	inputPath := flag.String("input", "-", "go test -bench output (- = stdin)")
	threshold := flag.Float64("threshold", 15, "max tolerated overhead regression, percent (absolute medians past it are reported)")
	update := flag.Bool("update", false, "rewrite the baseline from the input instead of gating")
	note := flag.String("note", "", "provenance note stored with -update")
	flag.Parse()

	in := io.Reader(os.Stdin)
	if *inputPath != "-" {
		f, err := os.Open(*inputPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	samples, allocs, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(samples) == 0 {
		fatal(fmt.Errorf("benchgate: no benchmark results in input"))
	}

	if *update {
		b := Baseline{Note: *note, Benchmarks: make(map[string]float64, len(samples))}
		// Preserve the hand-written ratio and overhead invariants across refreshes,
		// and refresh (but never add or drop) the curated alloc gates.
		if raw, err := os.ReadFile(*baselinePath); err == nil {
			var old Baseline
			if err := json.Unmarshal(raw, &old); err == nil {
				b.Ratios, b.Overheads = old.Ratios, old.Overheads
				if len(old.Allocs) > 0 {
					b.Allocs = make(map[string]float64, len(old.Allocs))
					for name, want := range old.Allocs {
						if xs, ok := allocs[name]; ok && len(xs) > 0 {
							b.Allocs[name] = median(xs)
						} else {
							b.Allocs[name] = want
						}
					}
				}
			}
		}
		for name, xs := range samples {
			b.Benchmarks[name] = median(xs)
		}
		raw, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*baselinePath, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: baselined %d benchmarks into %s\n", len(b.Benchmarks), *baselinePath)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fatal(fmt.Errorf("benchgate: parsing %s: %w", *baselinePath, err))
	}
	lines, failed := check(base, samples, allocs, *threshold)
	for _, line := range lines {
		fmt.Println(line)
	}
	if failed {
		fmt.Println("benchgate: regression gate FAILED")
		os.Exit(1)
	}
	fmt.Println("benchgate: regression gate passed")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

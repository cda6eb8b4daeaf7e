// Command fleetbench measures the serving fleet end to end and layer by
// layer. One invocation boots the real stack in one process — a load
// client, a front-end server.Server over fleet.Frontend (pool,
// broadcaster, replication log), three loopback replicas over
// social.Service — drains one named workload's fixed op list through it,
// checks the answers against an oracle, and prints every metric by name
// and unit; the last line of standard output is one JSON object.
//
//	fleetbench --workload read_hot --seed 1 --seconds 12 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ledger (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// config is one invocation.
type config struct {
	w       workload
	seed    int64
	seconds int
	// ops overrides the fixed op count the workload derives from
	// seconds (0 = derive); the smoke tests run a few hundred ops.
	ops int
	// corpus, when set, is used instead of generating one: the tests
	// share a single corpus across their runs.
	corpus *corpus
	out    io.Writer // the human-readable report
}

// opCount is the number of requests the run's op list holds.
func (cfg config) opCount() int {
	if cfg.ops > 0 {
		return cfg.ops
	}
	return cfg.w.sizeOps(cfg.seconds)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "one of: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the generated requests")
	seconds := flag.Int("seconds", 12, "sizes the fixed op list: about this long on the commit that added the benchmark")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "fleetbench: unknown workload %q (want one of: %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "fleetbench: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		os.Exit(2)
	}
	// Two cores serve the fleet and the load; more would change what
	// "two closed-loop clients" saturate.
	procs := runtime.GOMAXPROCS(0)
	if procs > 2 {
		procs = 2
		runtime.GOMAXPROCS(procs)
	}
	fmt.Printf("fleetbench: workload=%s seed=%d seconds=%d trace=%d GOMAXPROCS=%d GOGC=default tmp=%s\n",
		w.name, *seed, *seconds, *trace, procs, os.TempDir())

	cfg := config{w: w, seed: *seed, seconds: *seconds, out: os.Stdout}
	run := runEndToEnd
	if *trace == 1 {
		run = runLedger
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		// A wrong answer fails the run even though the result was printed.
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// report prints the metrics of defs from values, one per line, and
// returns them in the result's form. values hold wall-clock
// measurements; scale (calibration.scale) puts every time and rate in
// reference time on the way out.
func report(out io.Writer, defs []metricDef, values map[string]float64, scale float64) map[string]metric {
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		v := values[d.name]
		switch d.unit {
		case "s", "ms", "us", "ns":
			v *= scale
		case "1/s":
			v /= scale
		}
		m[d.name] = metric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", d.name, v, d.unit)
	}
	return m
}

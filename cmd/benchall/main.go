// Command benchall regenerates the evaluation tables and figures.
//
// Usage:
//
//	benchall                      # every experiment, full scale
//	benchall -exp fig4            # one experiment
//	benchall -scale 0.25 -queries 10   # quick pass
//	benchall -list                # show the registry
//
// Output goes to stdout.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchall: ")

	expID := flag.String("exp", "", "run a single experiment by id (default: all)")
	scale := flag.Float64("scale", 1.0, "corpus scale multiplier")
	seed := flag.Int64("seed", 42, "generation seed")
	queries := flag.Int("queries", 40, "queries per measurement point")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}
	cfg := bench.Config{Scale: *scale, Seed: *seed, Queries: *queries}

	experiments := bench.All()
	if *expID != "" {
		e, ok := bench.ByID(*expID)
		if !ok {
			log.Fatalf("unknown experiment %q (use -list)", *expID)
		}
		experiments = []bench.Experiment{e}
	}
	for _, e := range experiments {
		start := time.Now()
		if err := e.Run(cfg, os.Stdout); err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Printf("[%s completed in %s]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
}

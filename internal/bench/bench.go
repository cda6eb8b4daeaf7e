// Package bench implements the experiment harness: one registered
// runner per table and figure of the (reconstructed) evaluation, each
// regenerating the corresponding rows from scratch — corpus generation,
// workload, algorithm execution, measurement, and table formatting.
// cmd/benchall drives the registry and prints the tables to stdout.
package bench

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/proximity"
	"repro/internal/topk"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale multiplies every corpus preset's universe (1 = paper-scale
	// presets, 0.25 = quick smoke run).
	Scale float64
	// Seed drives all generation deterministically.
	Seed int64
	// Queries is the number of queries measured per data point.
	Queries int
}

// DefaultConfig returns the standard full-run configuration.
func DefaultConfig() Config { return Config{Scale: 1.0, Seed: 42, Queries: 40} }

func (c Config) normalized() Config {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Queries <= 0 {
		c.Queries = 40
	}
	return c
}

// Experiment is one registered table/figure runner.
type Experiment struct {
	// ID is the experiment identifier, e.g. "table1" or "fig4".
	ID string
	// Title describes what the experiment shows.
	Title string
	// Run executes the experiment and writes its table to w.
	Run func(cfg Config, w io.Writer) error
}

// All returns every registered experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Dataset statistics", Run: runTable1},
		{ID: "table2", Title: "Index build time and size", Run: runTable2},
		{ID: "table3", Title: "Exactness: SocialMerge vs ExactSocial", Run: runTable3},
		{ID: "fig4", Title: "Query latency vs k", Run: runFig4},
		{ID: "fig5", Title: "List accesses and users expanded vs k", Run: runFig5},
		{ID: "fig6", Title: "Latency vs proximity damping alpha", Run: runFig6},
		{ID: "fig7", Title: "Latency vs seeker degree percentile", Run: runFig7},
		{ID: "fig8", Title: "Approximation quality vs horizon", Run: runFig8},
		{ID: "fig9", Title: "Scalability: latency vs network size", Run: runFig9},
		{ID: "fig10", Title: "Ablation: landmark pruning and materialized neighbourhoods", Run: runFig10},
		{ID: "fig11", Title: "Social/global blend beta vs result quality", Run: runFig11},
		{ID: "fig12", Title: "Exact-algorithm portfolio (SocialMerge/ContextMerge/SocialTA)", Run: runFig12},
		{ID: "ext2", Title: "Extension: dynamic updates and compaction", Run: runExt2},
		{ID: "ext4", Title: "Extension: durability (WAL, checkpoint, recovery)", Run: runExt4},
		{ID: "ext6", Title: "Extension: cost-based planner vs oracle", Run: runExt6},
		{ID: "ext7", Title: "Extension: serving-layer request cost", Run: runExt7},
	}
}

// ByID finds an experiment by identifier.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// datasets materializes the three corpus presets at the configured
// scale.
func datasets(cfg Config) ([]*gen.Dataset, error) {
	var out []*gen.Dataset
	for i, p := range gen.Presets() {
		ds, err := gen.Generate(p.Scale(cfg.Scale), cfg.Seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("bench: generating %s: %w", p.Name, err)
		}
		out = append(out, ds)
	}
	return out, nil
}

// engineFor builds an engine over a dataset with the given config.
func engineFor(ds *gen.Dataset, ecfg core.Config) (*core.Engine, error) {
	return core.NewEngine(ds.Graph, ds.Store, ecfg)
}

// evalEngineConfig is the proximity configuration used throughout the
// evaluation unless an experiment sweeps it explicitly: hop damping
// α = 0.6 (the conventional exponential-decay-with-distance proximity)
// with a support floor σ ≥ 0.1 (the social horizon is part of the
// scoring model — users that far out contribute nothing), pure social
// scoring. Fig 6 shows the sensitivity to α, including the undamped
// α = 1 extreme.
func evalEngineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Proximity = proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.1}
	return cfg
}

// measured is one algorithm execution's observations.
type measured struct {
	latency time.Duration
	access  topk.Access
	settled int
	answer  []topk.Result
	exact   bool
}

// runQueries executes algo over the workload and returns per-query
// measurements.
func runQueries(qs []gen.QuerySpec, k int, algo func(core.Query) (core.Answer, error)) ([]measured, error) {
	out := make([]measured, 0, len(qs))
	for _, spec := range qs {
		q := core.Query{Seeker: spec.Seeker, Tags: spec.Tags, K: k}
		start := time.Now()
		ans, err := algo(q)
		if err != nil {
			return nil, err
		}
		out = append(out, measured{
			latency: time.Since(start),
			access:  ans.Access,
			settled: ans.UsersSettled,
			answer:  ans.Results,
			exact:   ans.Exact,
		})
	}
	return out, nil
}

func meanLatencyMS(ms []measured) float64 {
	if len(ms) == 0 {
		return 0
	}
	var total time.Duration
	for _, m := range ms {
		total += m.latency
	}
	return float64(total.Microseconds()) / float64(len(ms)) / 1000
}

func meanAccess(ms []measured) (seq, random, users float64) {
	if len(ms) == 0 {
		return 0, 0, 0
	}
	var a topk.Access
	for _, m := range ms {
		a.Add(m.access)
	}
	n := float64(len(ms))
	return float64(a.Sequential) / n, float64(a.Random) / n, float64(a.UsersExpanded) / n
}

func meanSettled(ms []measured) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := 0
	for _, m := range ms {
		s += m.settled
	}
	return float64(s) / float64(len(ms))
}

// quality compares per-query answers against reference answers.
func quality(got, want []measured) (precision, ndcg float64) {
	if len(got) == 0 || len(got) != len(want) {
		return 0, 0
	}
	var p, n float64
	for i := range got {
		p += metrics.PrecisionAtK(got[i].answer, want[i].answer)
		n += metrics.NDCGAtK(got[i].answer, want[i].answer)
	}
	return p / float64(len(got)), n / float64(len(got))
}

// table is a tiny helper around tabwriter with a title line.
type table struct {
	tw *tabwriter.Writer
}

func newTable(w io.Writer, title string) *table {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	return &table{tw: tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)}
}

func (t *table) row(cells ...interface{}) {
	for i, c := range cells {
		if i > 0 {
			fmt.Fprint(t.tw, "\t")
		}
		switch v := c.(type) {
		case float64:
			fmt.Fprintf(t.tw, "%.3f", v)
		default:
			fmt.Fprint(t.tw, v)
		}
	}
	fmt.Fprintln(t.tw)
}

func (t *table) flush() { t.tw.Flush() }

// sortedCopy returns results sorted canonically (already are, but the
// quality metrics assume it; keep the invariant explicit).
func sortedCopy(rs []topk.Result) []topk.Result {
	out := make([]topk.Result, len(rs))
	copy(out, rs)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Item < out[j].Item
	})
	return out
}

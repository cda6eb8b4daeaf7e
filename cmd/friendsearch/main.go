// Command friendsearch answers socially personalized top-k queries over
// a dataset file produced by datagen by calling the engine
// (internal/core, internal/planner) directly: it is a one-shot process,
// so it puts no cache, worker pool or service in front of it.
//
// Usage:
//
//	friendsearch -data delicious.frnd -seeker 17 -tags 3,9 -k 10
//	friendsearch -data delicious.frnd -seeker 17 -tags 3,9 -mode exact
//	friendsearch -data delicious.frnd -seeker 17 -tags 3,9 -algo SocialTA -explain
//	friendsearch -data delicious.frnd -seeker 17 -tags 3,9 -theta 0.001
//
// Modes: auto (default — the cost-based planner picks the algorithm),
// exact (refined exact scores), approx (early termination). -algo
// forces one engine algorithm (SocialMerge, ContextMerge, SocialTA,
// GlobalTopK) in auto mode; the serving /v2 API has no such knob, its
// modes all run the exact merge. -explain dumps how the query was
// answered.
// Ctrl-C cancels a running query mid-expansion.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/planner"
	"repro/internal/proximity"
	"repro/internal/search"
	"repro/internal/tagstore"
	"repro/internal/topk"
)

// errUsage reports a command line the flag package has already
// complained about on stderr.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("friendsearch: ")
	err := run(os.Args[1:], os.Stdout)
	if errors.Is(err, errUsage) {
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("friendsearch", flag.ContinueOnError)
	data := fs.String("data", "", "dataset file from datagen (required)")
	seeker := fs.Int("seeker", 0, "seeker user id")
	tagsArg := fs.String("tags", "", "comma-separated query tag ids (required)")
	k := fs.Int("k", 10, "number of results")
	mode := fs.String("mode", "auto", "execution mode: auto, exact, approx")
	algo := fs.String("algo", "", "force an algorithm in auto mode (SocialMerge, ContextMerge, SocialTA, GlobalTopK)")
	explain := fs.Bool("explain", false, "dump how the query was answered")
	alpha := fs.Float64("alpha", 1.0, "proximity hop damping in (0,1]")
	beta := fs.Float64("beta", 1.0, "social/global blend in [0,1]")
	theta := fs.Float64("theta", 0, "approximation: stop expanding below this proximity")
	maxUsers := fs.Int("max-users", 0, "approximation: expansion budget (0 = unlimited)")
	minScore := fs.Float64("min-score", 0, "drop results scoring below this")
	offset := fs.Int("offset", 0, "skip the first N results (paging)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errUsage
	}
	if *data == "" || *tagsArg == "" {
		fs.Usage()
		return errUsage
	}

	g, store, err := index.ReadFile(*data)
	if err != nil {
		return err
	}
	engine, err := core.NewEngine(g, store, core.Config{
		Proximity: proximity.Params{Alpha: *alpha, SelfWeight: 1},
		Beta:      *beta,
	})
	if err != nil {
		return err
	}
	engine.AttachItemIndex(core.BuildItemIndex(store))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The σ-horizon / expansion-budget approximations are core-level
	// knobs with no request field: run them directly. They bypass the
	// request surface, so the request-level flags must not be silently
	// dropped.
	if *theta > 0 || *maxUsers > 0 {
		if *mode != "auto" || *algo != "" || *explain || *minScore != 0 || *offset != 0 {
			return errors.New("-theta/-max-users run the legacy core path and cannot be combined with -mode, -algo, -explain, -min-score or -offset")
		}
		tags, err := parseTags(*tagsArg)
		if err != nil {
			return err
		}
		q := core.Query{Seeker: graph.UserID(*seeker), Tags: tags, K: *k}
		start := time.Now()
		ans, err := engine.SocialMerge(q, core.Options{Theta: *theta, MaxUsers: *maxUsers, Ctx: ctx})
		if err != nil {
			return queryErr(err)
		}
		printSummary(stdout, "approx", "SocialMerge", *seeker, fmt.Sprint(tags), *k, ans, time.Since(start))
		printResults(stdout, named(ans.Results))
		return nil
	}

	m, err := search.ParseMode(*mode)
	if err != nil {
		return err
	}
	req := search.Request{
		Seeker:   strconv.Itoa(*seeker),
		Tags:     []string{*tagsArg}, // Normalize splits the commas
		K:        *k,
		Mode:     m,
		MinScore: *minScore,
		Offset:   *offset,
	}
	if err := req.Normalize(); err != nil {
		return err
	}
	hint, ok := planner.ParseAlgorithm(*algo)
	if *algo != "" && !ok {
		return fmt.Errorf("unknown algorithm %q (want SocialMerge, ContextMerge, SocialTA or GlobalTopK)", *algo)
	}
	tags, err := parseTags(strings.Join(req.Tags, ","))
	if err != nil {
		return err
	}
	p, err := planner.New(engine)
	if err != nil {
		return err
	}
	q := core.Query{Seeker: graph.UserID(*seeker), Tags: tags, K: req.K + req.Offset}
	ex := search.Explain{Mode: req.Mode.String(), Beta: engine.Beta()}

	alg, opts := planner.SocialMerge, core.Options{Ctx: ctx}
	var plan *planner.Plan // set when the planner chose alg
	switch {
	case req.Mode == search.ModeExact:
		opts.RefineScores = true
	case req.Mode == search.ModeApprox:
	case *algo != "":
		alg = hint
		if !p.Available(alg) {
			return fmt.Errorf("algorithm %s unavailable on this engine (GlobalTopK needs -beta 0)", alg)
		}
	default:
		pl := p.Plan(q)
		alg, plan = pl.Alg, &pl
	}
	ex.Algorithm = alg.String()

	start := time.Now()
	var ans core.Answer
	if alg == planner.SocialMerge {
		// Over a materialized horizon, as the serving path runs it, so
		// -explain can report the horizon the query consumed.
		var h *core.SeekerHorizon
		if h, err = engine.MaterializeHorizonCtx(ctx, q.Seeker, 0); err == nil {
			ex.HorizonUsers = h.Size()
			ex.HorizonResidual = h.Residual()
			ans, err = engine.SocialMergeWithHorizon(q, h, opts)
		}
	} else {
		ans, err = p.Run(ctx, alg, q)
	}
	elapsed := time.Since(start)
	if err != nil {
		return queryErr(err)
	}

	results := req.Window(named(ans.Results))
	if n := len(results); n > 0 {
		ex.ScoreBound = results[n-1].Score
	}
	printSummary(stdout, ex.Mode, ex.Algorithm, *seeker, *tagsArg, *k, ans, elapsed)
	if *explain {
		printExplain(stdout, &ex, plan)
	}
	printResults(stdout, results)
	return nil
}

// parseTags parses a comma-separated list of tag ids ("3,9, 12").
func parseTags(s string) ([]tagstore.TagID, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("empty tag list")
	}
	parts := strings.Split(s, ",")
	out := make([]tagstore.TagID, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad tag %q: %v", p, err)
		}
		if n < 0 {
			return nil, fmt.Errorf("negative tag %d", n)
		}
		out = append(out, tagstore.TagID(n))
	}
	return out, nil
}

func queryErr(err error) error {
	if errors.Is(err, context.Canceled) {
		return errors.New("query cancelled")
	}
	return err
}

func named(rs []topk.Result) []search.Result {
	out := make([]search.Result, len(rs))
	for i, r := range rs {
		out[i] = search.Result{Item: strconv.Itoa(int(r.Item)), Score: r.Score}
	}
	return out
}

func printSummary(w io.Writer, mode, alg string, seeker int, tags string, k int, ans core.Answer, elapsed time.Duration) {
	fmt.Fprintf(w, "mode=%s algorithm=%s seeker=%d tags=%s k=%d exact=%v\n", mode, alg, seeker, tags, k, ans.Exact)
	fmt.Fprintf(w, "latency=%s settled=%d seq=%d rand=%d\n",
		elapsed, ans.UsersSettled, ans.Access.Sequential, ans.Access.Random)
}

// printExplain dumps ex and, when the planner chose the algorithm, its
// plan's estimates.
func printExplain(w io.Writer, ex *search.Explain, plan *planner.Plan) {
	fmt.Fprintf(w, "planned=%v", plan != nil)
	if plan != nil && len(plan.Est) > 0 {
		fmt.Fprint(w, " estimates={")
		first := true
		for alg := planner.SocialMerge; alg <= planner.GlobalTopK; alg++ {
			if est, ok := plan.Est[alg]; ok {
				if !first {
					fmt.Fprint(w, " ")
				}
				fmt.Fprintf(w, "%s:%.0f", alg, est)
				first = false
			}
		}
		fmt.Fprint(w, "}")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "horizon=%d residual=%.4f score_bound=%.4f beta=%.2f\n",
		ex.HorizonUsers, ex.HorizonResidual, ex.ScoreBound, ex.Beta)
}

func printResults(w io.Writer, rs []search.Result) {
	if len(rs) == 0 {
		fmt.Fprintln(w, "(no matching items)")
		return
	}
	for i, r := range rs {
		fmt.Fprintf(w, "%2d. item %-8s score %.4f\n", i+1, r.Item, r.Score)
	}
}

// Package planner selects, per query, which of the engine's exact
// algorithms to run: a miniature cost-based optimizer over the
// algorithm portfolio (SocialMerge, ContextMerge, SocialTA, and — for
// purely global scoring — GlobalTopK).
//
// No single algorithm dominates: SocialMerge wins when the frontier
// bound bites early (steep proximity decay, selective tags), SocialTA
// wins for tiny k on Zipf-heavy corpora where a handful of sorted
// rounds certify, ContextMerge wins on very small social balls, and
// GlobalTopK is unbeatable when β = 0 makes the network irrelevant.
// The planner predicts each algorithm's access count from cheap query
// features — seeker degree, k, query-tag list lengths — using either a
// transparent heuristic (uncalibrated) or per-algorithm linear models
// fitted on a calibration workload (see Calibrate). The Ext-6
// experiment measures how close planned execution gets to the
// per-query oracle.
package planner

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/tagstore"
)

// Algorithm identifies one engine execution strategy.
type Algorithm int

const (
	// SocialMerge is the paper's incremental network-aware algorithm.
	SocialMerge Algorithm = iota
	// ContextMerge is the materialize-then-merge baseline.
	ContextMerge
	// SocialTA is the random-access threshold algorithm.
	SocialTA
	// GlobalTopK ignores the network (valid only when β = 0).
	GlobalTopK
	numAlgorithms
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case SocialMerge:
		return "SocialMerge"
	case ContextMerge:
		return "ContextMerge"
	case SocialTA:
		return "SocialTA"
	case GlobalTopK:
		return "GlobalTopK"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves an algorithm by its String spelling
// (case-insensitive). It reports false for unknown names.
func ParseAlgorithm(s string) (Algorithm, bool) {
	for a := SocialMerge; a < numAlgorithms; a++ {
		if strings.EqualFold(a.String(), strings.TrimSpace(s)) {
			return a, true
		}
	}
	return SocialMerge, false
}

// Available reports whether the algorithm can answer queries exactly on
// this planner's engine (SocialTA needs the item index, GlobalTopK
// needs β = 0).
func (p *Planner) Available(alg Algorithm) bool {
	for _, a := range p.available() {
		if a == alg {
			return true
		}
	}
	return false
}

// Features are the cheap per-query signals predictions are made from.
type Features struct {
	// K is the requested result count.
	K float64
	// Degree is the seeker's social degree.
	Degree float64
	// ListLen is the summed global posting-list length of the query
	// tags (tag selectivity).
	ListLen float64
	// Ball is a crude social-ball size estimate: degree amplified by
	// the corpus' average degree once (two-hop reach proxy), capped at
	// the user count.
	Ball float64
}

// vector returns the feature vector with a leading intercept term.
func (f Features) vector() []float64 {
	return []float64{1, f.K, f.Degree, f.ListLen, f.Ball}
}

// numFeatures is the design-matrix width (intercept included).
const numFeatures = 5

// Plan is the outcome of query planning.
type Plan struct {
	// Alg is the chosen algorithm.
	Alg Algorithm
	// Est maps every considered algorithm to its predicted access
	// count; algorithms that cannot run are absent.
	Est map[Algorithm]float64
	// Calibrated reports whether fitted models (rather than the
	// heuristic) produced the estimates.
	Calibrated bool
}

// Planner plans and executes queries against one engine. Calibration
// mutates the planner, so confine it to setup; Plan and Execute are
// safe for concurrent use afterwards.
type Planner struct {
	e          *core.Engine
	avgDegree  float64
	models     [numAlgorithms][]float64
	calibrated bool
}

// New builds an uncalibrated planner over an engine.
func New(e *core.Engine) (*Planner, error) {
	if e == nil {
		return nil, errors.New("planner: nil engine")
	}
	g := e.Graph()
	avg := 0.0
	if g.NumUsers() > 0 {
		avg = 2 * float64(g.NumEdges()) / float64(g.NumUsers())
	}
	return &Planner{e: e, avgDegree: avg}, nil
}

// FeaturesOf computes the planning features of a query.
func (p *Planner) FeaturesOf(q core.Query) Features {
	g := p.e.Graph()
	deg := 0.0
	if q.Seeker >= 0 && int(q.Seeker) < g.NumUsers() {
		deg = float64(g.Degree(q.Seeker))
	}
	listLen := 0.0
	seen := map[tagstore.TagID]bool{}
	for _, t := range q.Tags {
		if seen[t] || t < 0 || int(t) >= p.e.Store().NumTags() {
			continue
		}
		seen[t] = true
		_, n := p.e.Store().GlobalBlocks(t)
		listLen += float64(n)
	}
	ball := deg * (1 + p.avgDegree)
	if max := float64(g.NumUsers()); ball > max {
		ball = max
	}
	return Features{K: float64(q.K), Degree: deg, ListLen: listLen, Ball: ball}
}

// available lists the algorithms that can answer the query exactly on
// this engine.
func (p *Planner) available() []Algorithm {
	algs := []Algorithm{SocialMerge, ContextMerge}
	if p.e.HasItemIndex() {
		algs = append(algs, SocialTA)
	}
	if p.e.Beta() == 0 {
		algs = append(algs, GlobalTopK)
	}
	return algs
}

// Plan predicts costs and picks the cheapest available algorithm.
func (p *Planner) Plan(q core.Query) Plan {
	f := p.FeaturesOf(q)
	est := make(map[Algorithm]float64)
	best := SocialMerge
	bestCost := 0.0
	for i, alg := range p.available() {
		var c float64
		if p.calibrated {
			c = dot(p.models[alg], f.vector())
			if c < 1 {
				c = 1 // a fitted model extrapolating below zero is noise
			}
		} else {
			c = p.heuristicCost(alg, f)
		}
		est[alg] = c
		if i == 0 || c < bestCost {
			best, bestCost = alg, c
		}
	}
	return Plan{Alg: best, Est: est, Calibrated: p.calibrated}
}

// heuristicCost is the uncalibrated access-count model. The constants
// encode the qualitative cost structure (documented in DESIGN.md §3);
// Calibrate replaces them with corpus-fitted coefficients.
func (p *Planner) heuristicCost(alg Algorithm, f Features) float64 {
	perUserPostings := 1.0
	if n := float64(p.e.Store().NumUsers()); n > 0 {
		perUserPostings = float64(p.e.Store().NumTriples()) / n
	}
	switch alg {
	case GlobalTopK:
		// ~k sorted rounds over the query lists.
		return 4 * f.K
	case SocialMerge:
		// Settles a k-dependent fraction of the ball; each settle costs
		// the user's per-tag lists plus one sorted round.
		settled := 8 + 2*f.K
		if settled > f.Ball && f.Ball > 0 {
			settled = f.Ball
		}
		return settled * (perUserPostings/4 + 2)
	case ContextMerge:
		// Full ball expansion plus most of the ball's posting mass.
		return f.Ball * (perUserPostings/4 + 2) * 2
	case SocialTA:
		// Full proximity materialization (ball-proportional) plus a few
		// sorted rounds, each costing a tagger-list probe.
		taggersPerItem := 1.0
		if ni := float64(p.e.Store().NumItems()); ni > 0 {
			taggersPerItem = float64(p.e.Store().NumTriples()) / ni
		}
		return f.Ball + (6+2*f.K)*(1+taggersPerItem)
	default:
		return 0
	}
}

// Execute plans the query, runs the chosen algorithm, and returns the
// answer with the plan. All planned algorithms are exact, so the
// answer is the same top-k set whichever is picked.
func (p *Planner) Execute(q core.Query) (core.Answer, Plan, error) {
	return p.ExecuteCtx(nil, q)
}

// ExecuteCtx is Execute with cancellation checkpoints: a cancelled ctx
// aborts the chosen algorithm mid-run with ctx.Err().
func (p *Planner) ExecuteCtx(ctx context.Context, q core.Query) (core.Answer, Plan, error) {
	plan := p.Plan(q)
	ans, err := p.Run(ctx, plan.Alg, q)
	return ans, plan, err
}

// Run executes one specific algorithm of the portfolio, bypassing cost
// prediction — the entry point for callers that planned already or that
// honour a caller-supplied algorithm hint.
func (p *Planner) Run(ctx context.Context, alg Algorithm, q core.Query) (core.Answer, error) {
	opts := core.Options{Ctx: ctx}
	switch alg {
	case SocialMerge:
		return p.e.SocialMerge(q, opts)
	case ContextMerge:
		return p.e.ContextMerge(q, opts)
	case SocialTA:
		return p.e.SocialTA(q, opts)
	case GlobalTopK:
		return p.e.GlobalTopKCtx(ctx, q)
	default:
		return core.Answer{}, fmt.Errorf("planner: unknown algorithm %v", alg)
	}
}

func (p *Planner) run(alg Algorithm, q core.Query) (core.Answer, error) {
	return p.Run(nil, alg, q)
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

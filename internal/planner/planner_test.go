package planner

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/proximity"
	"repro/internal/tagstore"
)

func testEngine(t testing.TB, beta float64, withItems bool) (*core.Engine, *gen.Dataset) {
	t.Helper()
	p := gen.CorpusParams{
		Name: "plan",
		Graph: gen.GraphParams{
			Kind: gen.BarabasiAlbert, NumUsers: 120, M: 3,
			MinWeight: 0.3, MaxWeight: 1,
		},
		NumItems:       300,
		NumTags:        25,
		TriplesPerUser: 20,
		TagZipfS:       1.1,
		ItemZipfS:      1.1,
		Homophily:      0.4,
	}
	ds, err := gen.Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.NewEngine(ds.Graph, ds.Store, core.Config{
		Proximity: proximity.Params{Alpha: 0.6, SelfWeight: 1, MinSigma: 0.05},
		Beta:      beta,
	})
	if err != nil {
		t.Fatal(err)
	}
	if withItems {
		e.AttachItemIndex(core.BuildItemIndex(ds.Store))
	}
	return e, ds
}

func workload(ds *gen.Dataset, n int, seed int64) []core.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]core.Query, n)
	for i := range qs {
		qs[i] = core.Query{
			Seeker: graph.UserID(rng.Intn(ds.Graph.NumUsers())),
			Tags: []tagstore.TagID{
				tagstore.TagID(rng.Intn(ds.Store.NumTags())),
				tagstore.TagID(rng.Intn(ds.Store.NumTags())),
			},
			K: 1 + rng.Intn(20),
		}
	}
	return qs
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x − 3y = −8  →  x = 1, y = 3
	a := [][]float64{{2, 1}, {1, -3}}
	b := []float64{5, -8}
	x, err := solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("solve = %v, want [1 3]", x)
	}
	// Singular system is rejected.
	if _, err := solve([][]float64{{1, 2}, {2, 4}}, []float64{1, 2}); err == nil {
		t.Fatal("singular system solved")
	}
}

func TestRidgeFitRecoversLinearModel(t *testing.T) {
	// y = 3 + 2·f1 − 0.5·f2 with exact data.
	rng := rand.New(rand.NewSource(9))
	var rows [][]float64
	var y []float64
	for i := 0; i < 50; i++ {
		f1, f2 := rng.Float64()*10, rng.Float64()*10
		rows = append(rows, []float64{1, f1, f2})
		y = append(y, 3+2*f1-0.5*f2)
	}
	coef, err := ridgeFit(rows, y, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 2, -0.5}
	for i := range want {
		if math.Abs(coef[i]-want[i]) > 1e-6 {
			t.Fatalf("coef = %v, want %v", coef, want)
		}
	}
}

func TestPlannerValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	e, _ := testEngine(t, 1, false)
	p, err := New(e)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(nil); err == nil {
		t.Fatal("empty calibration accepted")
	}
}

func TestAvailabilityRules(t *testing.T) {
	// β > 0 without item index: SocialMerge + ContextMerge only.
	e, _ := testEngine(t, 1, false)
	p, _ := New(e)
	plan := p.Plan(core.Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 5})
	if _, ok := plan.Est[SocialTA]; ok {
		t.Fatal("SocialTA offered without item index")
	}
	if _, ok := plan.Est[GlobalTopK]; ok {
		t.Fatal("GlobalTopK offered with beta > 0")
	}
	if len(plan.Est) != 2 {
		t.Fatalf("estimates = %v", plan.Est)
	}

	// β = 0 with item index: all four, and GlobalTopK must win (it does
	// strictly less work for a globally scored query).
	e0, _ := testEngine(t, 0, true)
	p0, _ := New(e0)
	plan0 := p0.Plan(core.Query{Seeker: 0, Tags: []tagstore.TagID{0}, K: 5})
	if len(plan0.Est) != 4 {
		t.Fatalf("estimates = %v", plan0.Est)
	}
	if plan0.Alg != GlobalTopK {
		t.Fatalf("beta 0 plan = %v, want GlobalTopK", plan0.Alg)
	}
}

func TestExecuteMatchesSocialMerge(t *testing.T) {
	e, ds := testEngine(t, 1, true)
	p, _ := New(e)
	for _, q := range workload(ds, 10, 7) {
		ans, plan, err := p.Execute(q)
		if err != nil {
			t.Fatalf("%v: %v", plan.Alg, err)
		}
		if !ans.Exact {
			t.Fatalf("planned %v returned non-exact answer", plan.Alg)
		}
		want, err := e.SocialMerge(q, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Results) != len(want.Results) {
			t.Fatalf("planned %v: %d results, want %d", plan.Alg, len(ans.Results), len(want.Results))
		}
		// Same certified set (order may differ under near-ties — compare
		// membership).
		wantSet := make(map[int32]bool, len(want.Results))
		for _, r := range want.Results {
			wantSet[r.Item] = true
		}
		for _, r := range ans.Results {
			if !wantSet[r.Item] {
				t.Fatalf("planned %v returned item %d outside SocialMerge set", plan.Alg, r.Item)
			}
		}
	}
}

func TestCalibrationFitsAndPredictsPositiveCosts(t *testing.T) {
	e, ds := testEngine(t, 1, true)
	p, _ := New(e)
	if err := p.Calibrate(workload(ds, 24, 3)); err != nil {
		t.Fatal(err)
	}
	if !p.Calibrated() {
		t.Fatal("not marked calibrated")
	}
	if p.Model(SocialMerge) == nil || p.Model(SocialTA) == nil {
		t.Fatal("missing fitted models")
	}
	if p.Model(Algorithm(99)) != nil {
		t.Fatal("out-of-range model lookup returned data")
	}
	for _, q := range workload(ds, 10, 4) {
		plan := p.Plan(q)
		if !plan.Calibrated {
			t.Fatal("plan not using calibration")
		}
		for alg, c := range plan.Est {
			if c < 1 || math.IsNaN(c) {
				t.Fatalf("estimate %v = %g", alg, c)
			}
		}
	}
}

// TestCalibratedPlannerNearOracle: after calibration the planner's
// total executed cost over a held-out workload must be within 2× of
// the per-query oracle (the best algorithm chosen with hindsight) —
// and no worse than always running the overall-best single algorithm.
func TestCalibratedPlannerNearOracle(t *testing.T) {
	e, ds := testEngine(t, 1, true)
	p, _ := New(e)
	if err := p.Calibrate(workload(ds, 30, 5)); err != nil {
		t.Fatal(err)
	}
	held := workload(ds, 25, 6)

	algs := []Algorithm{SocialMerge, ContextMerge, SocialTA}
	perAlgTotal := make(map[Algorithm]float64)
	oracle := 0.0
	planned := 0.0
	for _, q := range held {
		best := math.Inf(1)
		costs := make(map[Algorithm]float64, len(algs))
		for _, alg := range algs {
			ans, err := p.run(alg, q)
			if err != nil {
				t.Fatal(err)
			}
			c := float64(ans.Access.Total() + ans.Access.UsersExpanded)
			costs[alg] = c
			perAlgTotal[alg] += c
			if c < best {
				best = c
			}
		}
		oracle += best
		planned += costs[p.Plan(q).Alg]
	}
	bestSingle := math.Inf(1)
	for _, total := range perAlgTotal {
		if total < bestSingle {
			bestSingle = total
		}
	}
	if planned > 2*oracle {
		t.Fatalf("planned cost %.0f > 2× oracle %.0f", planned, oracle)
	}
	if planned > bestSingle*1.15 {
		t.Fatalf("planned cost %.0f worse than best single algorithm %.0f", planned, bestSingle)
	}
	t.Logf("oracle %.0f, planned %.0f, best single %.0f", oracle, planned, bestSingle)
}

func TestFeaturesOf(t *testing.T) {
	e, ds := testEngine(t, 1, false)
	p, _ := New(e)
	q := core.Query{Seeker: 3, Tags: []tagstore.TagID{1, 1, 2}, K: 7}
	f := p.FeaturesOf(q)
	if f.K != 7 {
		t.Fatalf("K = %g", f.K)
	}
	if f.Degree != float64(ds.Graph.Degree(3)) {
		t.Fatalf("Degree = %g, want %d", f.Degree, ds.Graph.Degree(3))
	}
	_, n1 := ds.Store.GlobalBlocks(1)
	_, n2 := ds.Store.GlobalBlocks(2)
	wantLen := float64(n1 + n2)
	if f.ListLen != wantLen {
		t.Fatalf("ListLen = %g, want %g (duplicate tags deduped)", f.ListLen, wantLen)
	}
	if f.Ball <= 0 || f.Ball > float64(ds.Graph.NumUsers()) {
		t.Fatalf("Ball = %g", f.Ball)
	}
}

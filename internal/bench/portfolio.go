package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/planner"
	"repro/internal/search"
	"repro/internal/social"
	"repro/internal/wal"
)

// runFig12 compares the exact-algorithm portfolio — SocialMerge,
// ContextMerge, SocialTA — across k, reporting latency and the two
// access classes. Expected shape: SocialMerge settles the fewest users
// throughout; SocialTA wins at k = 1 on sorted-round counts but pays
// ball-sized expansion plus random accesses; ContextMerge's up-front
// full-ball expansion makes it the most expensive except on very small
// balls.
func runFig12(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	ds, err := primaryDataset(cfg)
	if err != nil {
		return err
	}
	e, err := engineFor(ds, evalEngineConfig())
	if err != nil {
		return err
	}
	e.AttachItemIndex(core.BuildItemIndex(ds.Store))
	qs, err := gen.Workload(ds, workloadFor(cfg), cfg.Seed)
	if err != nil {
		return err
	}
	t := newTable(w, "Fig 12: exact-algorithm portfolio vs k — "+ds.Name)
	t.row("k", "algo", "lat-ms", "seq", "rand", "users")
	for _, k := range []int{1, 5, 10, 20, 50} {
		for _, alg := range []struct {
			name string
			run  func(core.Query) (core.Answer, error)
		}{
			{"SocialMerge", func(q core.Query) (core.Answer, error) { return e.SocialMerge(q, core.Options{}) }},
			{"ContextMerge", func(q core.Query) (core.Answer, error) { return e.ContextMerge(q, core.Options{}) }},
			{"SocialTA", func(q core.Query) (core.Answer, error) { return e.SocialTA(q, core.Options{}) }},
		} {
			ms, err := runQueries(qs, k, alg.run)
			if err != nil {
				return fmt.Errorf("fig12 %s k=%d: %w", alg.name, k, err)
			}
			seq, rnd, _ := meanAccess(ms)
			t.row(k, alg.name, meanLatencyMS(ms), seq, rnd, meanSettled(ms))
		}
	}
	t.flush()
	return nil
}

// runExt4 measures the durability layer: write-ahead append throughput
// under both sync policies, checkpoint cost, and recovery time as a
// function of the log length replayed. Expected shape: SyncManual
// appends are orders of magnitude faster than SyncAlways (one fsync
// per record); recovery time grows linearly in the replayed suffix and
// collapses after a checkpoint.
func runExt4(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nUsers := int(200 * cfg.Scale)
	if nUsers < 20 {
		nUsers = 20
	}
	mutations := nUsers * 10

	user := func(i int) string { return fmt.Sprintf("u%03d", i) }
	randomMutation := func(s *social.Service) error {
		if rng.Intn(4) == 0 {
			a, b := rng.Intn(nUsers), rng.Intn(nUsers)
			if a == b {
				b = (b + 1) % nUsers
			}
			return s.Befriend(user(a), user(b), 0.1+0.9*rng.Float64())
		}
		return s.Tag(user(rng.Intn(nUsers)),
			fmt.Sprintf("i%04d", rng.Intn(nUsers*4)),
			fmt.Sprintf("t%02d", rng.Intn(40)))
	}

	t := newTable(w, "Ext 4: durability — WAL throughput, checkpoint, recovery")
	t.row("phase", "records", "ms", "us/record")

	for _, pol := range []struct {
		name string
		sync wal.SyncPolicy
	}{{"append-syncalways", wal.SyncAlways}, {"append-syncmanual", wal.SyncManual}} {
		dcfg := durable.DefaultConfig()
		dcfg.Sync = pol.sync
		dcfg.CheckpointEvery = 0
		appendDir, err := os.MkdirTemp("", "ext4-"+pol.name)
		if err != nil {
			return err
		}
		defer os.RemoveAll(appendDir)
		svc, err := durable.Open(appendDir, dcfg)
		if err != nil {
			return err
		}
		n := mutations / 4
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := randomMutation(svc); err != nil {
				return err
			}
		}
		if err := svc.Sync(); err != nil {
			return err
		}
		el := time.Since(start)
		t.row(pol.name, n, float64(el.Microseconds())/1000, float64(el.Microseconds())/float64(n))
		svc.Close()
	}

	// Recovery cost vs replayed length, before and after checkpointing.
	dir, err := os.MkdirTemp("", "ext4-recovery")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	dcfg := durable.DefaultConfig()
	dcfg.Sync = wal.SyncManual
	dcfg.CheckpointEvery = 0
	svc, err := durable.Open(dir, dcfg)
	if err != nil {
		return err
	}
	for i := 0; i < mutations; i++ {
		if err := randomMutation(svc); err != nil {
			return err
		}
	}
	svc.Close()

	start := time.Now()
	svc, err = durable.Open(dir, dcfg)
	if err != nil {
		return err
	}
	el := time.Since(start)
	rec := svc.Stats().RecoveredRecords
	t.row("recover-full-log", rec, float64(el.Microseconds())/1000, float64(el.Microseconds())/float64(max(1, int64(rec))))

	ckStart := time.Now()
	if err := svc.Checkpoint(); err != nil {
		return err
	}
	t.row("checkpoint", mutations, float64(time.Since(ckStart).Microseconds())/1000, 0.0)
	svc.Close()

	start = time.Now()
	svc, err = durable.Open(dir, dcfg)
	if err != nil {
		return err
	}
	el = time.Since(start)
	rec = svc.Stats().RecoveredRecords
	t.row("recover-after-ckpt", rec, float64(el.Microseconds())/1000, 0.0)
	svc.Close()
	t.flush()
	return nil
}

// runExt6 measures the cost-based planner: total access cost of
// always-one-algorithm strategies vs the calibrated planner vs the
// per-query oracle. Expected shape: no single algorithm matches the
// oracle everywhere; the calibrated planner lands within a few percent
// of it.
func runExt6(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	ds, err := primaryDataset(cfg)
	if err != nil {
		return err
	}
	e, err := engineFor(ds, evalEngineConfig())
	if err != nil {
		return err
	}
	e.AttachItemIndex(core.BuildItemIndex(ds.Store))
	p, err := planner.New(e)
	if err != nil {
		return err
	}

	calibWP := workloadFor(cfg)
	if calibWP.NumQueries < 12 { // the fit needs more rows than features
		calibWP.NumQueries = 12
	}
	calibQs, err := gen.Workload(ds, calibWP, cfg.Seed+1000)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	toCore := func(qs []gen.QuerySpec) []core.Query {
		out := make([]core.Query, len(qs))
		for i, s := range qs {
			out[i] = core.Query{Seeker: s.Seeker, Tags: s.Tags, K: 1 + rng.Intn(30)}
		}
		return out
	}
	if err := p.Calibrate(toCore(calibQs)); err != nil {
		return err
	}

	heldQs, err := gen.Workload(ds, workloadFor(cfg), cfg.Seed+2000)
	if err != nil {
		return err
	}
	held := toCore(heldQs)

	algs := []planner.Algorithm{planner.SocialMerge, planner.ContextMerge, planner.SocialTA}
	totals := map[string]float64{}
	picks := map[planner.Algorithm]int{}
	var oracle, planned float64
	for _, q := range held {
		best := -1.0
		costs := map[planner.Algorithm]float64{}
		for _, alg := range algs {
			var ans core.Answer
			var err error
			switch alg {
			case planner.SocialMerge:
				ans, err = e.SocialMerge(q, core.Options{})
			case planner.ContextMerge:
				ans, err = e.ContextMerge(q, core.Options{})
			case planner.SocialTA:
				ans, err = e.SocialTA(q, core.Options{})
			}
			if err != nil {
				return err
			}
			c := float64(ans.Access.Total() + ans.Access.UsersExpanded)
			costs[alg] = c
			totals["always-"+alg.String()] += c
			if best < 0 || c < best {
				best = c
			}
		}
		oracle += best
		pick := p.Plan(q).Alg
		picks[pick]++
		planned += costs[pick]
	}
	t := newTable(w, "Ext 6: planner vs oracle — total accesses over held-out workload")
	t.row("strategy", "total-accesses", "vs-oracle")
	t.row("oracle", oracle, 1.0)
	t.row("planner(calibrated)", planned, planned/oracle)
	for _, alg := range algs {
		key := "always-" + alg.String()
		t.row(key, totals[key], totals[key]/oracle)
	}
	t.flush()
	fmt.Fprintf(w, "planner picks: SocialMerge=%d ContextMerge=%d SocialTA=%d (of %d)\n",
		picks[planner.SocialMerge], picks[planner.ContextMerge], picks[planner.SocialTA], len(held))
	return nil
}

// runExt7 measures end-to-end HTTP serving: requests per second and
// mean latency for a mixed workload against the in-process handler
// (no network stack), as a function of read share. It quantifies the
// facade + overlay + engine cost a deployment pays per request.
func runExt7(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	t := newTable(w, "Ext 7: serving layer — in-process request cost")
	t.row("mix", "requests", "ms-total", "us/request")
	for _, mix := range []struct {
		name      string
		readShare int // out of 100
	}{{"write-heavy(10%reads)", 10}, {"balanced(50%reads)", 50}, {"read-heavy(90%reads)", 90}} {
		scfg := social.DefaultServiceConfig()
		scfg.AutoCompactEvery = 64
		svc, err := social.NewService(scfg)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(cfg.Seed))
		// Seed a small community so searches have work to do; the first
		// loop guarantees every queried user and tag exists.
		for i := 0; i < 40; i++ {
			if err := svc.Tag(fmt.Sprintf("u%d", i), fmt.Sprintf("i%d", i), fmt.Sprintf("t%d", i%10)); err != nil {
				return err
			}
		}
		for i := 0; i < 50; i++ {
			a, b := rng.Intn(40), rng.Intn(40)
			if a == b {
				continue
			}
			if err := svc.Befriend(fmt.Sprintf("u%d", a), fmt.Sprintf("u%d", b), 0.5+0.5*rng.Float64()); err != nil {
				return err
			}
		}
		for i := 0; i < 300; i++ {
			if err := svc.Tag(fmt.Sprintf("u%d", rng.Intn(40)), fmt.Sprintf("i%d", rng.Intn(100)), fmt.Sprintf("t%d", rng.Intn(10))); err != nil {
				return err
			}
		}
		if err := svc.Flush(); err != nil {
			return err
		}
		const n = 2000
		start := time.Now()
		for i := 0; i < n; i++ {
			if rng.Intn(100) < mix.readShare {
				if _, err := svc.Do(context.Background(), search.Request{
					Seeker: fmt.Sprintf("u%d", rng.Intn(40)), Tags: []string{fmt.Sprintf("t%d", rng.Intn(10))},
					K: 10, Mode: search.ModeExact,
				}); err != nil {
					return err
				}
			} else {
				if err := svc.Tag(fmt.Sprintf("u%d", rng.Intn(40)), fmt.Sprintf("i%d", rng.Intn(100)), fmt.Sprintf("t%d", rng.Intn(10))); err != nil {
					return err
				}
			}
		}
		el := time.Since(start)
		t.row(mix.name, n, float64(el.Microseconds())/1000, float64(el.Microseconds())/n)
	}
	t.flush()
	return nil
}

package repro

// Benchmarks for the second wave of subsystems: the exact-algorithm
// portfolio (Fig 12), the durability layer (Ext 4), the cost-based
// planner (Ext 6), and the HTTP serving layer (Ext 7). Same convention
// as bench_test.go: one bench per table/figure, `go test -bench=.
// -benchmem` regenerates the measurements.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/gen"
	"repro/internal/planner"
	"repro/internal/server"
	"repro/internal/social"
	"repro/internal/wal"
)

// portfolioEngine builds the bench engine with the item index attached.
func portfolioEngine(b *testing.B) (*core.Engine, *gen.Dataset) {
	b.Helper()
	ds := benchDataset(b)
	e := benchEngine(b, ds)
	e.AttachItemIndex(core.BuildItemIndex(ds.Store))
	return e, ds
}

func benchQuery(ds *gen.Dataset, k int) core.Query {
	return core.Query{
		Seeker: ds.Graph.DegreePercentileUser(50),
		Tags:   []int32{1, 3},
		K:      k,
	}
}

// BenchmarkFig12_Portfolio compares the three exact algorithms on the
// same query (k = 10, median-degree seeker).
func BenchmarkFig12_Portfolio(b *testing.B) {
	e, ds := portfolioEngine(b)
	q := benchQuery(ds, 10)
	b.Run("SocialMerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.SocialMerge(q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ContextMerge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.ContextMerge(q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SocialTA", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.SocialTA(q, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExt4_WALAppend measures the durable mutation path under both
// sync policies (the fsync gap is the headline of Ext 4).
func BenchmarkExt4_WALAppend(b *testing.B) {
	for _, pol := range []struct {
		name string
		sync wal.SyncPolicy
	}{{"SyncAlways", wal.SyncAlways}, {"SyncManual", wal.SyncManual}} {
		b.Run(pol.name, func(b *testing.B) {
			cfg := durable.DefaultConfig()
			cfg.Sync = pol.sync
			cfg.CheckpointEvery = 0
			svc, err := durable.Open(b.TempDir(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer svc.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := svc.Tag(fmt.Sprintf("u%d", i%100), fmt.Sprintf("i%d", i%500), "t"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExt4_Recovery measures replaying a 2000-record log.
func BenchmarkExt4_Recovery(b *testing.B) {
	dir := b.TempDir()
	cfg := durable.DefaultConfig()
	cfg.Sync = wal.SyncManual
	cfg.CheckpointEvery = 0
	svc, err := durable.Open(dir, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if err := svc.Tag(fmt.Sprintf("u%d", i%100), fmt.Sprintf("i%d", i%500), fmt.Sprintf("t%d", i%20)); err != nil {
			b.Fatal(err)
		}
	}
	svc.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := durable.Open(dir, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := s.Stats().RecoveredRecords; got != 2000 {
			b.Fatalf("recovered %d", got)
		}
		s.Close()
	}
}

// BenchmarkExt6_PlannerPlan measures pure planning overhead (it must be
// negligible next to execution).
func BenchmarkExt6_PlannerPlan(b *testing.B) {
	e, ds := portfolioEngine(b)
	p, err := planner.New(e)
	if err != nil {
		b.Fatal(err)
	}
	qs := make([]core.Query, 16)
	for i := range qs {
		qs[i] = benchQuery(ds, 1+i)
	}
	if err := p.Calibrate(qs); err != nil {
		b.Fatal(err)
	}
	q := benchQuery(ds, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if plan := p.Plan(q); plan.Est == nil {
			b.Fatal("no estimates")
		}
	}
}

// BenchmarkExt6_PlannerExecute measures planned end-to-end execution.
func BenchmarkExt6_PlannerExecute(b *testing.B) {
	e, ds := portfolioEngine(b)
	p, err := planner.New(e)
	if err != nil {
		b.Fatal(err)
	}
	q := benchQuery(ds, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := p.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExt7_HTTPSearch measures a search through the full HTTP
// handler stack (JSON decode/encode included, network excluded).
func BenchmarkExt7_HTTPSearch(b *testing.B) {
	cfg := social.DefaultServiceConfig()
	cfg.AutoCompactEvery = 0
	svc, err := social.NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for u := 0; u < 30; u++ {
		if err := svc.Befriend(fmt.Sprintf("u%d", u), fmt.Sprintf("u%d", (u+1)%30), 0.7); err != nil {
			b.Fatal(err)
		}
		if err := svc.Tag(fmt.Sprintf("u%d", u), fmt.Sprintf("i%d", u%10), "go"); err != nil {
			b.Fatal(err)
		}
	}
	srv, err := server.New(svc)
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(`{"seeker":"u0","tags":["go"],"k":5}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v2/search", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

// BenchmarkExt7_HTTPTag measures a mutation through the handler stack.
func BenchmarkExt7_HTTPTag(b *testing.B) {
	cfg := social.DefaultServiceConfig()
	svc, err := social.NewService(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(svc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _ := json.Marshal(map[string]interface{}{
			"user": fmt.Sprintf("u%d", i%50), "item": fmt.Sprintf("i%d", i%200), "tag": "go",
		})
		req := httptest.NewRequest(http.MethodPost, "/v1/tag", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusNoContent {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}

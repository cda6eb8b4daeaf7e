package bench

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/overlay"
)

// runExt2 measures dynamic updates: query latency on an overlay as
// mutations accumulate, and the compaction cost that resets it.
func runExt2(cfg Config, w io.Writer) error {
	cfg = cfg.normalized()
	ds, err := primaryDataset(cfg)
	if err != nil {
		return err
	}
	o, err := overlay.New(ds.Graph, ds.Store)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(ds.Graph, ds.Store, evalEngineConfig())
	if err != nil {
		return err
	}
	specs, err := gen.Workload(ds, workloadFor(cfg), cfg.Seed)
	if err != nil {
		return err
	}

	t := newTable(w, "Ext 2: dynamic updates — mutations, compaction and query cost")
	t.row("batch", "mutations-pending", "compact-ms", "query-ms-after")
	users := ds.Graph.NumUsers()
	items := ds.Store.NumItems()
	tags := ds.Store.NumTags()
	for batch := 1; batch <= 4; batch++ {
		// apply a batch of synthetic mutations: new taggings + edges
		for i := 0; i < 500; i++ {
			u := int32((batch*7919 + i*104729) % users)
			v := int32((batch*31 + i*7919 + 1) % users)
			if err := o.Tag(u, int32((i*613)%items), int32((i*389)%tags)); err != nil {
				return err
			}
			if u != v && i%5 == 0 {
				if err := o.Befriend(u, v, 0.3); err != nil {
					return err
				}
			}
		}
		_, pending := o.Pending()
		start := time.Now()
		if err := o.Compact(); err != nil {
			return err
		}
		g, st := o.Snapshot()
		if eng, err = core.NewEngine(g, st, evalEngineConfig()); err != nil {
			return err
		}
		compactMS := float64(time.Since(start).Microseconds()) / 1000

		start = time.Now()
		n := 0
		for _, s := range specs[:min(10, len(specs))] {
			q := core.Query{Seeker: s.Seeker, Tags: s.Tags, K: 10}
			if _, err := eng.SocialMerge(q, core.Options{}); err != nil {
				return err
			}
			n++
		}
		queryMS := float64(time.Since(start).Microseconds()) / 1000 / float64(n)
		t.row(batch, pending, compactMS, queryMS)
	}
	t.flush()
	return nil
}

package server

import (
	"context"

	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/social"
	"repro/internal/tagstore"
	"repro/internal/vocab"
)

// noopBackend is the shared base of the test fakes: a Backend (and no
// role) whose every method succeeds and answers nothing. A fake embeds
// it — or noopReplica / noopFrontend to play a role — and overrides
// only the methods its test is about.
type noopBackend struct{}

func (noopBackend) Do(ctx context.Context, req search.Request) (search.Response, error) {
	return search.Response{Results: []search.Result{}}, nil
}
func (noopBackend) DoBatch(ctx context.Context, reqs []search.Request) []search.BatchResult {
	return make([]search.BatchResult, len(reqs))
}
func (noopBackend) Befriend(a, b string, weight float64) error { return nil }
func (noopBackend) Tag(user, item, tag string) error           { return nil }
func (noopBackend) Users() []string                            { return nil }

// noopReplica is noopBackend in the Replica role.
type noopReplica struct{ noopBackend }

func (noopReplica) Apply(m social.Mutation) error { return nil }
func (noopReplica) AppliedLSN() uint64            { return 0 }
func (noopReplica) Flush() error                  { return nil }
func (noopReplica) SnapshotWithCursor() (*graph.Graph, *tagstore.Store, *vocab.Set, uint64, error) {
	return nil, nil, nil, 0, nil
}
func (noopReplica) ImportSnapshot(g *graph.Graph, st *tagstore.Store, names *vocab.Set, lsn uint64) error {
	return nil
}
func (noopReplica) CachedSeekers() []string { return nil }
func (noopReplica) WarmSeekers(ctx context.Context, seekers []string) (int, error) {
	return 0, nil
}
func (noopReplica) Stats() social.Stats { return social.Stats{} }

// noopFrontend is noopBackend in the Frontend role.
type noopFrontend struct{ noopBackend }

func (noopFrontend) Mutate(ctx context.Context, m social.Mutation) error { return nil }
func (noopFrontend) QuorumRole() (role, leaderURL string, term uint64)   { return "", "", 0 }
func (noopFrontend) ReplogPage(from uint64, max int) (ReplogPage, error) {
	return ReplogPage{From: from}, nil
}
func (noopFrontend) JoinReplica(ctx context.Context, url string) (int, error) { return 0, nil }
func (noopFrontend) RetireReplica(ctx context.Context, slot int) error        { return nil }
func (noopFrontend) FleetEpoch() uint64                                       { return 0 }
func (noopFrontend) StatsAny() interface{}                                    { return nil }

var (
	_ Backend  = noopBackend{}
	_ Replica  = noopReplica{}
	_ Frontend = noopFrontend{}
)

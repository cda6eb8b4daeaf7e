package fleet

import (
	"context"

	"repro/internal/durable"
	"repro/internal/quorum"
	"repro/internal/wal"
)

// RepLog is a started one-member quorum node: the single front-end's
// replication log. Kept, with OpenRepLog, UseRepLog, AppendTag, ReadFrom
// and Close, for benchmarks/fleetbench until its wiring moves into the
// main module (ROADMAP item 3); everything else opens a quorum.Node and
// attaches it with UseQuorum.
type RepLog struct{ node *quorum.Node }

// OpenRepLog opens (creating if necessary) a one-member log in dir and
// starts it: the log it returns is already leading. Kept for
// benchmarks/fleetbench until ROADMAP item 3.
func OpenRepLog(dir string) (*RepLog, error) {
	n, err := quorum.Open(quorum.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	n.Start()
	return &RepLog{node: n}, nil
}

// UseRepLog attaches rl's node (UseQuorum). Kept for
// benchmarks/fleetbench until ROADMAP item 3.
func (f *Frontend) UseRepLog(rl *RepLog) error { return f.UseQuorum(rl.node) }

// AppendTag durably appends one tagging mutation and returns its LSN.
// Kept for benchmarks/fleetbench until ROADMAP item 3.
func (r *RepLog) AppendTag(user, item, tag string) (uint64, error) {
	return r.node.Append(context.Background(), durable.RecTag, durable.EncodeTag(user, item, tag))
}

// ReadFrom is the node's ReadCommitted: a from below the retained log
// start fails with wal.ErrTruncated, damage with wal.ErrCorrupt. Kept
// for benchmarks/fleetbench until ROADMAP item 3.
func (r *RepLog) ReadFrom(from uint64, fn func(wal.Record) error) (uint64, error) {
	return r.node.ReadCommitted(from, fn)
}

// Close closes the node. Kept for benchmarks/fleetbench until ROADMAP
// item 3.
func (r *RepLog) Close() error { return r.node.Close() }

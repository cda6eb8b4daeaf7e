// Package metrics implements the result-quality measures the experiments
// report when comparing an answer against a reference top-k (precision@k
// and NDCG@k), the rotating latency histogram, and the serving-path
// counters /v1/stats exposes: cache effectiveness (hits, misses,
// invalidations, evictions), per-replica fleet routing (requests,
// failovers, health transitions) and compaction heartbeat progress.
package metrics

import (
	"math"
	"sync/atomic"

	"repro/internal/topk"
)

// CacheCounters accumulates cache-effectiveness events. All methods are
// safe for concurrent use; the zero value is ready.
type CacheCounters struct {
	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	evictions     atomic.Int64
	expirations   atomic.Int64
}

// Hit records a cache hit.
func (c *CacheCounters) Hit() { c.hits.Add(1) }

// Miss records a cache miss.
func (c *CacheCounters) Miss() { c.misses.Add(1) }

// Invalidation records n entries dropped because the cached state went
// stale (generation mismatch or explicit invalidation).
func (c *CacheCounters) Invalidation(n int) { c.invalidations.Add(int64(n)) }

// Eviction records n entries dropped by the capacity policy.
func (c *CacheCounters) Eviction(n int) { c.evictions.Add(int64(n)) }

// Expiration records n entries dropped for being older than a lookup's
// age bound.
func (c *CacheCounters) Expiration(n int) { c.expirations.Add(int64(n)) }

// Snapshot returns a consistent-enough copy for reporting. Counters are
// read individually; a concurrent writer may land between reads, which
// is acceptable for observability.
func (c *CacheCounters) Snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Evictions:     c.evictions.Load(),
		Expirations:   c.expirations.Load(),
	}
}

// CacheSnapshot is a point-in-time view of CacheCounters, shaped for
// JSON stats endpoints.
type CacheSnapshot struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Evictions     int64
	Expirations   int64
}

// HitRate returns hits/(hits+misses), or 0 before any lookup.
func (s CacheSnapshot) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// ReplicaCounters accumulates one fleet replica's serving events on the
// front-end side: routed requests, transport failures, failovers served
// for other replicas' seekers, and health transitions.
// All methods are safe for concurrent use; the zero value is ready.
type ReplicaCounters struct {
	requests       atomic.Int64
	failures       atomic.Int64
	failovers      atomic.Int64
	ejections      atomic.Int64
	readmissions   atomic.Int64
	catchups       atomic.Int64
	catchupRecords atomic.Int64
}

// Request records one request routed to the replica.
func (c *ReplicaCounters) Request() { c.requests.Add(1) }

// Failure records a transport-level failure (the request did not get a
// usable answer from this replica).
func (c *ReplicaCounters) Failure() { c.failures.Add(1) }

// Failover records a request this replica served because the seeker's
// primary owner was unavailable.
func (c *ReplicaCounters) Failover() { c.failovers.Add(1) }

// Ejection records the health checker removing the replica from rotation.
func (c *ReplicaCounters) Ejection() { c.ejections.Add(1) }

// Readmission records the health checker restoring the replica.
func (c *ReplicaCounters) Readmission() { c.readmissions.Add(1) }

// Catchup records one completed replication-log catch-up that replayed
// n missed records into the replica before readmission.
func (c *ReplicaCounters) Catchup(n int) {
	c.catchups.Add(1)
	c.catchupRecords.Add(int64(n))
}

// Snapshot returns a point-in-time copy for reporting.
func (c *ReplicaCounters) Snapshot() ReplicaSnapshot {
	return ReplicaSnapshot{
		Requests:       c.requests.Load(),
		Failures:       c.failures.Load(),
		Failovers:      c.failovers.Load(),
		Ejections:      c.ejections.Load(),
		Readmissions:   c.readmissions.Load(),
		Catchups:       c.catchups.Load(),
		CatchupRecords: c.catchupRecords.Load(),
	}
}

// ReplicaSnapshot is a point-in-time view of ReplicaCounters, shaped
// for JSON stats endpoints.
type ReplicaSnapshot struct {
	Requests       int64
	Failures       int64
	Failovers      int64
	Ejections      int64
	Readmissions   int64
	Catchups       int64
	CatchupRecords int64
}

// BroadcastCounters accumulates compaction heartbeat events (see
// internal/fleet.Broadcaster). Safe for concurrent use; the zero value
// is ready.
type BroadcastCounters struct {
	batches  atomic.Int64
	failures atomic.Int64
}

// Batch records one coalesced heartbeat fanned out to the fleet.
func (c *BroadcastCounters) Batch() { c.batches.Add(1) }

// Failure records a replica that did not acknowledge a heartbeat.
func (c *BroadcastCounters) Failure() { c.failures.Add(1) }

// Snapshot returns a point-in-time copy for reporting.
func (c *BroadcastCounters) Snapshot() BroadcastSnapshot {
	return BroadcastSnapshot{Batches: c.batches.Load(), Failures: c.failures.Load()}
}

// BroadcastSnapshot is a point-in-time view of BroadcastCounters.
type BroadcastSnapshot struct {
	Batches  int64
	Failures int64
}

// PrecisionAtK is the fraction of returned items that belong to the
// reference top-k set. Both lists should already be truncated to k; the
// reference defines the relevant set.
func PrecisionAtK(got, want []topk.Result) float64 {
	if len(got) == 0 {
		if len(want) == 0 {
			return 1
		}
		return 0
	}
	rel := make(map[int32]bool, len(want))
	for _, r := range want {
		rel[r.Item] = true
	}
	hit := 0
	for _, r := range got {
		if rel[r.Item] {
			hit++
		}
	}
	return float64(hit) / float64(len(got))
}

// NDCGAtK computes normalized discounted cumulative gain of the answer
// against graded relevance equal to the reference scores. Items outside
// the reference contribute zero gain. Returns 1 for a perfect ranking.
func NDCGAtK(got, want []topk.Result) float64 {
	if len(want) == 0 {
		return 1
	}
	gain := make(map[int32]float64, len(want))
	for _, r := range want {
		gain[r.Item] = r.Score
	}
	dcg := 0.0
	for i, r := range got {
		if g, ok := gain[r.Item]; ok {
			dcg += g / math.Log2(float64(i)+2)
		}
	}
	idcg := 0.0
	for i, r := range want {
		idcg += r.Score / math.Log2(float64(i)+2)
	}
	if idcg == 0 {
		return 1
	}
	return dcg / idcg
}

// Package shard is the consistent-hash ring internal/fleet routes
// seekers across replica processes with.
//
// Consistent hashing — a ring of virtual nodes rather than a plain
// modulus — is deliberate: ownership is stable under fleet resizing
// (growing from N to N+1 slots remaps only ~1/(N+1) of the seekers),
// which is what lets an elastic resize warm exactly the moved slice
// instead of cold-starting every replica's cache at once.
package shard

import (
	"fmt"
	"sort"
)

// virtualNodes is the number of ring points per shard. 64 keeps the
// load imbalance between shards within a few percent while the ring
// stays small enough that building and searching it is noise.
const virtualNodes = 64

// Ring maps keys to shard slots by consistent hashing. A slot is a
// stable integer label: the classic NewRing labels them 0..N-1, while
// NewRingOf accepts an arbitrary slot set so an elastic fleet can
// retire slot 1 and keep slots {0, 2, 4} without renumbering — a
// slot's ring points depend only on its own label, so adding or
// removing a slot moves exactly that slot's points and nothing else.
type Ring struct {
	shards  int
	slots   []int       // sorted slot labels
	maxSlot int         // largest slot label
	points  []ringPoint // hash-ascending
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds a ring over the given number of shards (≥ 1). The
// slots are labelled 0..shards-1.
func NewRing(shards int) (*Ring, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shard: %d shards, need >= 1", shards)
	}
	slots := make([]int, shards)
	for s := range slots {
		slots[s] = s
	}
	return NewRingOf(slots)
}

// NewRingOf builds a ring over an arbitrary set of slot labels (≥ 1
// distinct, non-negative). Two rings sharing a slot label place that
// slot's points identically, which is what makes resizes minimal: keys
// only ever move to an added slot or away from a removed one.
func NewRingOf(slots []int) (*Ring, error) {
	if len(slots) < 1 {
		return nil, fmt.Errorf("shard: empty slot set, need >= 1")
	}
	sorted := append([]int(nil), slots...)
	sort.Ints(sorted)
	for i, s := range sorted {
		if s < 0 {
			return nil, fmt.Errorf("shard: negative slot label %d", s)
		}
		if i > 0 && s == sorted[i-1] {
			return nil, fmt.Errorf("shard: duplicate slot label %d", s)
		}
	}
	r := &Ring{
		shards:  len(sorted),
		slots:   sorted,
		maxSlot: sorted[len(sorted)-1],
		points:  make([]ringPoint, 0, len(sorted)*virtualNodes),
	}
	for _, s := range sorted {
		for v := 0; v < virtualNodes; v++ {
			// Hash the (slot, vnode) pair as a little label; FNV keeps
			// the ring deterministic across processes and restarts.
			h := fnv1a(uint64(s)<<32 | uint64(v))
			r.points = append(r.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r, nil
}

// Shards returns the number of slots on the ring.
func (r *Ring) Shards() int { return r.shards }

// Slots returns the ring's slot labels, ascending. Callers must not
// mutate the returned slice.
func (r *Ring) Slots() []int { return r.slots }

// HasSlot reports whether the given slot label is on the ring.
func (r *Ring) HasSlot(slot int) bool {
	i := sort.SearchInts(r.slots, slot)
	return i < len(r.slots) && r.slots[i] == slot
}

// OwnerString returns the shard owning a string key (a name-level
// seeker a router sees before id resolution).
func (r *Ring) OwnerString(s string) int {
	return r.points[r.startString(s)].shard
}

// AppendSuccessors appends every shard exactly once to dst, ordered
// by clockwise ring traversal from the key's hash — the owner first,
// then the shards a fleet router spills to when earlier choices are
// unhealthy — and returns the extended slice. Walking the ring
// (instead of owner+1, owner+2, …) keeps the spill deterministic per
// key while spreading one dead shard's keys across the survivors by
// ring geometry rather than dumping them all on a single neighbour.
// The walk allocates nothing when dst has room for Shards() more
// entries and every slot label is below stackSlots.
func (r *Ring) AppendSuccessors(dst []int, s string) []int {
	var stack [stackSlots]bool
	seen := stack[:]
	if r.maxSlot >= stackSlots {
		seen = make([]bool, r.maxSlot+1)
	}
	start := r.startString(s)
	for i, n := 0, 0; i < len(r.points) && n < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			dst = append(dst, p.shard)
			n++
		}
	}
	return dst
}

// stackSlots bounds the slot labels AppendSuccessors tracks in an
// array on its stack; a ring with a larger label allocates its set.
const stackSlots = 64

// MovedKeys computes the ring-slice diff of a resize: which of the
// given string keys change owner between old and new, grouped by their
// new owner slot. Because a slot's points depend only on its own
// label, the moved set is exactly the minimal slice — keys either move
// to a slot added in new or away from a slot removed from old; a key
// owned by a slot present on both rings never moves (see the property
// test). The result is what resize orchestration warms: for a join,
// the joiner's entry lists the horizons to transfer; for a retirement,
// each entry lists what a ring successor inherits.
func MovedKeys(old, new *Ring, keys []string) map[int][]string {
	moved := make(map[int][]string)
	for _, k := range keys {
		was, is := old.OwnerString(k), new.OwnerString(k)
		if was != is {
			moved[is] = append(moved[is], k)
		}
	}
	return moved
}

// startString returns the index of the first ring point at or
// clockwise-after the string key's hash.
func (r *Ring) startString(s string) int {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h = mix64(h)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a hashes the 8 bytes of v, little-endian, then avalanches the
// result. The finalizer matters: plain FNV-1a has weak diffusion on
// the highly structured (slot, vnode) labels this ring hashes, leaving
// the ring's shard sequence nearly periodic, which both skews load and, worse, concentrates a dead
// shard's failover spill (AppendSuccessors) onto a single survivor.
func fnv1a(v uint64) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h ^= v >> (8 * i) & 0xff
		h *= fnvPrime
	}
	return mix64(h)
}

// mix64 is the splitmix64 finalizer: a cheap, deterministic full-
// avalanche permutation of the hash space.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

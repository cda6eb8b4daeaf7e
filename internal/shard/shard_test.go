package shard

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(0); err == nil {
		t.Error("0 shards accepted")
	}
}

func TestRingDeterministicAndStable(t *testing.T) {
	r1, err := NewRing(8)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing(8)
	for i := 0; i < 1000; i++ {
		if key := fmt.Sprintf("seeker-%d", i); r1.OwnerString(key) != r2.OwnerString(key) {
			t.Fatalf("ring not deterministic for %q", key)
		}
	}
	if r1.OwnerString("alice") != r2.OwnerString("alice") {
		t.Fatal("ring not deterministic for strings")
	}
}

func TestRingSpreadsLoad(t *testing.T) {
	const shards, users = 8, 10000
	r, err := NewRing(shards)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	for i := 0; i < users; i++ {
		counts[r.OwnerString(fmt.Sprintf("seeker-%d", i))]++
	}
	for s, n := range counts {
		if n == 0 {
			t.Fatalf("shard %d owns no users", s)
		}
		// Virtual nodes should keep every shard within 3x of the mean.
		if n > 3*users/shards {
			t.Fatalf("shard %d owns %d of %d users", s, n, users)
		}
	}
}

// TestRingResizeStability: growing the fleet must remap only a modest
// fraction of keys — the consistent-hashing property a plain modulus
// lacks.
func TestRingResizeStability(t *testing.T) {
	const users = 10000
	r8, _ := NewRing(8)
	r9, _ := NewRing(9)
	moved := 0
	for i := 0; i < users; i++ {
		if key := fmt.Sprintf("seeker-%d", i); r8.OwnerString(key) != r9.OwnerString(key) {
			moved++
		}
	}
	// Ideal is 1/9 ≈ 11%; allow generous slack but reject modulus-like
	// behaviour (a plain mod remaps ~89%).
	if moved > users/3 {
		t.Fatalf("resize 8→9 moved %d of %d keys", moved, users)
	}

	// The smoke resizes 3→5→3: at both sizes the failover spread must
	// stay uniform — every shard owns within 2x of its fair share of
	// keys, and a dead owner's keys spill across ALL survivors, each
	// catching within 3x of its fair share of the spill.
	for _, shards := range []int{3, 5} {
		r, err := NewRing(shards)
		if err != nil {
			t.Fatal(err)
		}
		const keys = 6000
		owned := make([]int, shards)
		spill := make([]map[int]int, shards)
		for s := range spill {
			spill[s] = make(map[int]int)
		}
		for i := 0; i < keys; i++ {
			succ := r.AppendSuccessors(nil, fmt.Sprintf("seeker-%d", i))
			owned[succ[0]]++
			spill[succ[0]][succ[1]]++
		}
		fair := keys / shards
		for s, n := range owned {
			if n > 2*fair || n < fair/2 {
				t.Fatalf("%d shards: shard %d owns %d keys, fair share %d", shards, s, n, fair)
			}
		}
		for s := range spill {
			if len(spill[s]) != shards-1 {
				t.Fatalf("%d shards: shard %d spills to only %d of %d survivors (%v)",
					shards, s, len(spill[s]), shards-1, spill[s])
			}
			for to, n := range spill[s] {
				if fairSpill := owned[s] / (shards - 1); n > 3*fairSpill {
					t.Fatalf("%d shards: shard %d dumps %d of %d spilled keys on shard %d",
						shards, s, n, owned[s], to)
				}
			}
		}
	}
}

// TestRingOfMinimalMovement is the resize property test: across grow,
// shrink and mid-slot retirement, a key owned by a slot present on
// both rings NEVER changes owner — every move is to an added slot or
// away from a removed one. This is the invariant elastic resharding
// warms against: the moved slice is exactly what changes hands.
func TestRingOfMinimalMovement(t *testing.T) {
	cases := []struct {
		name     string
		old, new []int
	}{
		{"grow 3→5", []int{0, 1, 2}, []int{0, 1, 2, 3, 4}},
		{"shrink 5→3", []int{0, 1, 2, 3, 4}, []int{0, 1, 2}},
		{"retire middle slot", []int{0, 1, 2, 3, 4}, []int{0, 2, 3, 4}},
		{"rejoin after retirement", []int{0, 2, 3, 4}, []int{0, 1, 2, 3, 4}},
	}
	const keys = 20000
	for _, tc := range cases {
		oldRing, err := NewRingOf(tc.old)
		if err != nil {
			t.Fatal(err)
		}
		newRing, err := NewRingOf(tc.new)
		if err != nil {
			t.Fatal(err)
		}
		moved := 0
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("seeker-%d", i)
			was, is := oldRing.OwnerString(key), newRing.OwnerString(key)
			if was == is {
				continue
			}
			moved++
			if newRing.HasSlot(was) && oldRing.HasSlot(is) {
				t.Fatalf("%s: %q moved %d→%d though both slots exist on both rings",
					tc.name, key, was, is)
			}
		}
		if moved == 0 {
			t.Fatalf("%s: no key moved — resize diff cannot be empty", tc.name)
		}
		// And MovedKeys must report exactly the moved set, keyed by the
		// new owner.
		all := make([]string, keys)
		for i := range all {
			all[i] = fmt.Sprintf("seeker-%d", i)
		}
		diff := MovedKeys(oldRing, newRing, all)
		total := 0
		for slot, ks := range diff {
			total += len(ks)
			for _, k := range ks {
				if newRing.OwnerString(k) != slot {
					t.Fatalf("%s: MovedKeys filed %q under %d, owner is %d",
						tc.name, k, slot, newRing.OwnerString(k))
				}
				if oldRing.OwnerString(k) == slot {
					t.Fatalf("%s: MovedKeys reports unmoved key %q", tc.name, k)
				}
			}
		}
		if total != moved {
			t.Fatalf("%s: MovedKeys reports %d moves, direct count %d", tc.name, total, moved)
		}
	}
}

func TestRingOfValidation(t *testing.T) {
	if _, err := NewRingOf(nil); err == nil {
		t.Error("empty slot set accepted")
	}
	if _, err := NewRingOf([]int{0, 1, 1}); err == nil {
		t.Error("duplicate slot accepted")
	}
	if _, err := NewRingOf([]int{-1, 0}); err == nil {
		t.Error("negative slot accepted")
	}
	r, err := NewRingOf([]int{0, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 3 {
		t.Fatalf("Shards() = %d, want 3", r.Shards())
	}
	for _, s := range []int{0, 2, 5} {
		if !r.HasSlot(s) {
			t.Fatalf("HasSlot(%d) = false", s)
		}
	}
	for _, s := range []int{1, 3, 4, 6} {
		if r.HasSlot(s) {
			t.Fatalf("HasSlot(%d) = true", s)
		}
	}
	succ := r.AppendSuccessors(nil, "alice")
	if len(succ) != 3 {
		t.Fatalf("successors over sparse slots: %v", succ)
	}
	// Equal-labelled rings agree regardless of construction path.
	classic, _ := NewRing(3)
	viaSlots, _ := NewRingOf([]int{0, 1, 2})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("k%d", i)
		if classic.OwnerString(key) != viaSlots.OwnerString(key) {
			t.Fatalf("NewRing and NewRingOf disagree on %q", key)
		}
	}
}

// TestRingSuccessors pins the failover preference order: it starts at
// the owner, visits every shard exactly once, is deterministic, and
// spreads a dead owner's keys across several survivors (ring geometry,
// not owner+1).
func TestRingSuccessors(t *testing.T) {
	r, err := NewRing(5)
	if err != nil {
		t.Fatal(err)
	}
	spill := make(map[int]int)
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("user-%d", i)
		succ := r.AppendSuccessors(nil, key)
		if len(succ) != 5 {
			t.Fatalf("%q: %d successors, want 5", key, len(succ))
		}
		if succ[0] != r.OwnerString(key) {
			t.Fatalf("%q: first successor %d is not the owner %d", key, succ[0], r.OwnerString(key))
		}
		seen := make(map[int]bool)
		for _, s := range succ {
			if seen[s] {
				t.Fatalf("%q: duplicate shard %d in %v", key, s, succ)
			}
			seen[s] = true
		}
		r2, _ := NewRing(5)
		succ2 := r2.AppendSuccessors(nil, key)
		for j := range succ {
			if succ[j] != succ2[j] {
				t.Fatalf("%q: successor order differs across identical rings (%v vs %v)", key, succ, succ2)
			}
		}
		if succ[0] == 0 { // keys owned by shard 0: where would they spill?
			spill[succ[1]]++
		}
	}
	if len(spill) < 2 {
		t.Fatalf("shard 0's keys all spill to one shard (%v); want ring-geometry spread", spill)
	}
}

// successorsReference is the preference order as the ring defined it
// before the walk took a caller's buffer: a fresh list and a fresh
// seen set per call.
func successorsReference(r *Ring, s string) []int {
	out := make([]int, 0, r.shards)
	seen := make([]bool, r.maxSlot+1)
	start := r.startString(s)
	for i := 0; i < len(r.points) && len(out) < r.shards; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, p.shard)
		}
	}
	return out
}

// TestAppendSuccessorsMatchesReference: on random rings whose slot
// labels lie below, across and above the stack-held seen set's bound,
// the walk into a caller's buffer equals the reference order for
// random keys, appends after what the buffer holds, and allocates
// nothing when the buffer has room and every label is below the bound.
func TestAppendSuccessorsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	below, above := 0, 0
	for trial := 0; trial < 60; trial++ {
		// Labels drawn from [0, span): a third of the trials stay far
		// below stackSlots, a third reach it and a third span past it.
		span := []int{stackSlots / 4, stackSlots, 4 * stackSlots}[trial%3]
		perm := rng.Perm(span)
		slots := perm[:1+rng.Intn(min(span, 12))]
		r, err := NewRingOf(slots)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]int, 0, r.Shards()+1)
		for k := 0; k < 200; k++ {
			key := fmt.Sprintf("key-%d-%d", trial, rng.Int63())
			want := successorsReference(r, key)
			if got := r.AppendSuccessors(buf[:0], key); !slices.Equal(got, want) {
				t.Fatalf("slots %v, key %q: AppendSuccessors %v, reference %v", slots, key, got, want)
			}
			if got := r.AppendSuccessors(append(buf[:0], -1), key); got[0] != -1 || !slices.Equal(got[1:], want) {
				t.Fatalf("slots %v, key %q: appended after -1 gives %v, want -1 then %v", slots, key, got, want)
			}
		}
		if r.maxSlot >= stackSlots {
			above++
			continue
		}
		below++
		if allocs := testing.AllocsPerRun(50, func() { buf = r.AppendSuccessors(buf[:0], "alice") }); allocs != 0 {
			t.Fatalf("slots %v (all below %d): %v allocs per walk into a buffer with room, want 0", slots, stackSlots, allocs)
		}
	}
	if below == 0 || above == 0 {
		t.Fatalf("%d rings below the stack bound and %d above it, want some of each", below, above)
	}
}

package tagstore

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// smallStore: 3 users, 4 items, 3 tags.
//
//	u0: (i0,t0)x2, (i1,t0), (i1,t1)
//	u1: (i0,t0), (i2,t1)x3
//	u2: (i3,t2)
func smallStore(t testing.TB) *Store {
	t.Helper()
	b := NewBuilder(3, 4, 3)
	b.AddCount(0, 0, 0, 2)
	b.Add(0, 1, 0)
	b.Add(0, 1, 1)
	b.Add(1, 0, 0)
	b.AddCount(1, 2, 1, 3)
	b.Add(2, 3, 2)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestBuildEmpty(t *testing.T) {
	s, err := NewBuilder(0, 0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTriples() != 0 || s.TotalAnnotations() != 0 {
		t.Fatalf("empty store: %d triples, %d annotations", s.NumTriples(), s.TotalAnnotations())
	}
}

func TestBuildValidation(t *testing.T) {
	cases := []struct {
		name string
		add  func(*Builder)
	}{
		{"user out of range", func(b *Builder) { b.Add(5, 0, 0) }},
		{"negative user", func(b *Builder) { b.Add(-1, 0, 0) }},
		{"item out of range", func(b *Builder) { b.Add(0, 9, 0) }},
		{"tag out of range", func(b *Builder) { b.Add(0, 0, 9) }},
		{"zero count", func(b *Builder) { b.AddCount(0, 0, 0, 0) }},
		{"negative count", func(b *Builder) { b.AddCount(0, 0, 0, -2) }},
	}
	for _, tc := range cases {
		b := NewBuilder(2, 2, 2)
		tc.add(b)
		if _, err := b.Build(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDuplicateTriplesSum(t *testing.T) {
	b := NewBuilder(1, 1, 1)
	b.Add(0, 0, 0)
	b.AddCount(0, 0, 0, 4)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s.NumTriples() != 1 {
		t.Fatalf("NumTriples = %d, want 1", s.NumTriples())
	}
	if tf := s.TF(0, 0, 0); tf != 5 {
		t.Fatalf("TF = %d, want 5", tf)
	}
	if s.TotalAnnotations() != 5 {
		t.Fatalf("TotalAnnotations = %d, want 5", s.TotalAnnotations())
	}
}

func TestGlobalListSortedByTF(t *testing.T) {
	s := smallStore(t)
	// tag 0: item 0 has tf 2+1=3, item 1 has tf 1.
	got := s.globalList(0)
	want := []Posting{{Item: 0, TF: 3}, {Item: 1, TF: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("global list of tag 0 = %v, want %v", got, want)
	}
	if s.MaxTF(0) != 3 {
		t.Fatalf("MaxTF(0) = %d, want 3", s.MaxTF(0))
	}
	// tag 1: item 2 tf 3, item 1 tf 1
	got = s.globalList(1)
	want = []Posting{{Item: 2, TF: 3}, {Item: 1, TF: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("global list of tag 1 = %v, want %v", got, want)
	}
}

func TestGlobalListTieBreakByItem(t *testing.T) {
	b := NewBuilder(1, 3, 1)
	b.Add(0, 2, 0)
	b.Add(0, 0, 0)
	b.Add(0, 1, 0)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	got := s.globalList(0)
	want := []Posting{{Item: 0, TF: 1}, {Item: 1, TF: 1}, {Item: 2, TF: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tie-break order = %v, want %v", got, want)
	}
}

func TestUserList(t *testing.T) {
	s := smallStore(t)
	got := s.UserList(0, 0)
	want := []UserPosting{{Item: 0, TF: 2}, {Item: 1, TF: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("UserList(0,0) = %v, want %v", got, want)
	}
	if lst := s.UserList(2, 0); lst != nil {
		t.Fatalf("UserList(2,0) = %v, want nil", lst)
	}
	if lst := s.UserList(1, 2); lst != nil {
		t.Fatalf("UserList(1,2) = %v, want nil", lst)
	}
}

func TestUserTags(t *testing.T) {
	s := smallStore(t)
	if got := s.UserTags(0); !reflect.DeepEqual(got, []TagID{0, 1}) {
		t.Fatalf("UserTags(0) = %v", got)
	}
	if got := s.UserTags(2); !reflect.DeepEqual(got, []TagID{2}) {
		t.Fatalf("UserTags(2) = %v", got)
	}
}

// TestUserIndexOnlyForUserTags: Build, Merge, Triples and ComputeStats
// leave a store without a per-user tag index — no query reads one —
// and the first UserTags call builds it exactly sized.
func TestUserIndexOnlyForUserTags(t *testing.T) {
	s := smallStore(t)
	merged, err := s.Merge([]Triple{{User: 3, Item: 4, Tag: 3, Count: 1}, {User: 0, Item: 2, Tag: 2, Count: 1}}, 4, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"built": s, "merged": merged} {
		st.Triples()
		st.ComputeStats()
		if st.userStart != nil || st.userTags != nil {
			t.Fatalf("%s store holds a per-user tag index", name)
		}
	}
	if got := merged.UserTags(0); !reflect.DeepEqual(got, []TagID{0, 1, 2}) {
		t.Fatalf("UserTags(0) = %v, want [0 1 2]", got)
	}
	if start, tags := merged.userStart, merged.userTags; len(start) != 5 || cap(start) != 5 || len(tags) != 7 || cap(tags) != 7 {
		t.Fatalf("index sized %d/%d starts, %d/%d tags; want 5 and 7 (user, tag) pairs",
			len(start), cap(start), len(tags), cap(tags))
	}
	if s.userStart != nil {
		t.Fatal("UserTags on the merged store built the index of the store it started from")
	}
}

// TestUserTagsConcurrentFirstCalls: racing first calls build the index
// once, and every caller reads the same slices.
func TestUserTagsConcurrentFirstCalls(t *testing.T) {
	s := smallStore(t)
	const callers = 8
	got := make([][]TagID, callers)
	var wg sync.WaitGroup
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c] = s.UserTags(1)
		}()
	}
	wg.Wait()
	for c := range got {
		if !reflect.DeepEqual(got[c], []TagID{0, 1}) || &got[c][0] != &got[0][0] {
			t.Fatalf("caller %d read %v at %p, caller 0 %v at %p", c, got[c], &got[c][0], got[0], &got[0][0])
		}
	}
}

func TestPointLookups(t *testing.T) {
	s := smallStore(t)
	if tf := s.TF(0, 0, 0); tf != 2 {
		t.Fatalf("TF(0,0,0) = %d, want 2", tf)
	}
	if tf := s.TF(1, 2, 1); tf != 3 {
		t.Fatalf("TF(1,2,1) = %d, want 3", tf)
	}
	if tf := s.TF(2, 0, 0); tf != 0 {
		t.Fatalf("TF(2,0,0) = %d, want 0", tf)
	}
	if tf := s.GlobalTF(0, 0); tf != 3 {
		t.Fatalf("GlobalTF(0,0) = %d, want 3", tf)
	}
	if tf := s.GlobalTF(3, 0); tf != 0 {
		t.Fatalf("GlobalTF(3,0) = %d, want 0", tf)
	}
}

func TestComputeStats(t *testing.T) {
	s := smallStore(t)
	st := s.ComputeStats()
	if st.Users != 3 || st.Items != 4 || st.Tags != 3 {
		t.Fatalf("universe wrong: %+v", st)
	}
	if st.Triples != 6 || st.Annotations != 9 {
		t.Fatalf("triples/annotations wrong: %+v", st)
	}
	if st.DistinctItemsTagged != 4 || st.DistinctTagsUsed != 3 {
		t.Fatalf("distinct counts wrong: %+v", st)
	}
	if st.MaxGlobalListLen != 2 {
		t.Fatalf("MaxGlobalListLen = %d, want 2", st.MaxGlobalListLen)
	}
}

func TestTriplesCanonicalOrder(t *testing.T) {
	s := smallStore(t)
	trs := s.Triples()
	ok := sort.SliceIsSorted(trs, func(i, j int) bool {
		a, b := trs[i], trs[j]
		if a.User != b.User {
			return a.User < b.User
		}
		if a.Tag != b.Tag {
			return a.Tag < b.Tag
		}
		return a.Item < b.Item
	})
	if !ok {
		t.Fatalf("triples not canonically sorted: %v", trs)
	}
}

// TestPropertyGlobalEqualsSumOfUserLists: for every tag, the global TF of
// an item equals the sum of per-user TFs — the two access paths are
// views of the same relation.
func TestPropertyGlobalEqualsSumOfUserLists(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu, ni, nt := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(5)
		b := NewBuilder(nu, ni, nt)
		for k := 0; k < 40; k++ {
			b.AddCount(int32(rng.Intn(nu)), ItemID(rng.Intn(ni)), TagID(rng.Intn(nt)), int32(1+rng.Intn(3)))
		}
		s, err := b.Build()
		if err != nil {
			return false
		}
		for tag := TagID(0); int(tag) < nt; tag++ {
			fromUsers := make(map[ItemID]int32)
			for u := int32(0); int(u) < nu; u++ {
				for _, p := range s.UserList(u, tag) {
					fromUsers[p.Item] += p.TF
				}
			}
			global := make(map[ItemID]int32)
			for _, p := range s.globalList(tag) {
				global[p.Item] = p.TF
			}
			if len(fromUsers) != len(global) {
				return false
			}
			for i, tf := range fromUsers {
				if global[i] != tf {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPointMatchesUserList: TF(u,i,t) agrees with the per-user
// posting lists.
func TestPropertyPointMatchesUserList(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu, ni, nt := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(4)
		b := NewBuilder(nu, ni, nt)
		for k := 0; k < 30; k++ {
			b.Add(int32(rng.Intn(nu)), ItemID(rng.Intn(ni)), TagID(rng.Intn(nt)))
		}
		s, err := b.Build()
		if err != nil {
			return false
		}
		for u := int32(0); int(u) < nu; u++ {
			for _, tag := range s.UserTags(u) {
				for _, p := range s.UserList(u, tag) {
					if s.TF(u, p.Item, tag) != p.TF {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMaxTFIsListHead: MaxTF equals the head of each non-empty
// global list and 0 otherwise.
func TestPropertyMaxTFIsListHead(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nu, ni, nt := 1+rng.Intn(5), 1+rng.Intn(8), 1+rng.Intn(6)
		b := NewBuilder(nu, ni, nt)
		for k := 0; k < 25; k++ {
			b.Add(int32(rng.Intn(nu)), ItemID(rng.Intn(ni)), TagID(rng.Intn(nt)))
		}
		s, err := b.Build()
		if err != nil {
			return false
		}
		for tag := TagID(0); int(tag) < nt; tag++ {
			lst := s.globalList(tag)
			if len(lst) == 0 {
				if s.MaxTF(tag) != 0 {
					return false
				}
				continue
			}
			if s.MaxTF(tag) != lst[0].TF {
				return false
			}
			// list must be sorted by TF desc
			for i := 1; i < len(lst); i++ {
				if lst[i].TF > lst[i-1].TF {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// mergeScript decodes a byte string into a base corpus and the delta
// batches compacted into it one after another, so the seeded
// differential test and FuzzStoreMerge run the same harness. A record
// is four bytes (user, item, tag, c): c = 0xFF closes the current batch
// (two in a row give an empty delta) and grows each universe by the
// other three bytes mod 3 without using the new ids; anything else is a
// triple with count 1 + c%3 over ids small enough to collide often.
func mergeScript(data []byte) (batches [][]Triple, grow [][3]int) {
	batches, grow = [][]Triple{nil}, [][3]int{{}}
	for ; len(data) >= 4; data = data[4:] {
		u, i, tg, c := data[0], data[1], data[2], data[3]
		if c == 0xFF {
			grow[len(grow)-1] = [3]int{int(u % 3), int(i % 3), int(tg % 3)}
			batches, grow = append(batches, nil), append(grow, [3]int{})
			continue
		}
		last := len(batches) - 1
		batches[last] = append(batches[last], Triple{User: int32(u % 12), Item: ItemID(i % 16), Tag: TagID(tg % 6), Count: int32(1 + c%3)})
	}
	return batches, grow
}

// randomMergeScript draws a script of several batches in which about a
// quarter of the triples repeat an earlier (user, item, tag) — the
// increments that reorder a TF-descending list — and later batches
// reach ids the earlier ones never used.
func randomMergeScript(rng *rand.Rand) []byte {
	var data []byte
	for batch, n := 0, 2+rng.Intn(4); batch < n; batch++ {
		if batch > 0 {
			data = append(data, byte(rng.Intn(3)), byte(rng.Intn(3)), byte(rng.Intn(3)), 0xFF)
		}
		reach := 2 + 3*batch // ids in use grow batch by batch
		for k, m := 0, rng.Intn(30); k < m; k++ {
			if len(data) >= 4 && rng.Intn(4) == 0 {
				at := 4 * rng.Intn(len(data)/4)
				data = append(data, data[at], data[at+1], data[at+2], byte(rng.Intn(3)))
				continue
			}
			data = append(data, byte(rng.Intn(reach)), byte(rng.Intn(reach+2)), byte(rng.Intn(1+reach/2)), byte(rng.Intn(3)))
		}
	}
	return data
}

// checkMergeScript folds the script's batches into a store one Merge at
// a time and, after each, holds the result against three references: a
// Build over the union of everything folded so far (the same counts,
// global lists, item index and per-user lists, list for list, and the
// same Triples()), a map model of the relation read back through every
// accessor, and the structure of the tag-major lists against the
// store's own Triples(); the blocks of both stores are held to their
// bounds.
func checkMergeScript(t *testing.T, data []byte) {
	t.Helper()
	batches, grow := mergeScript(data)
	var union []Triple
	nu, ni, nt := 0, 0, 0
	store, err := NewBuilder(0, 0, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	for round, delta := range batches {
		for _, tr := range delta {
			nu, ni, nt = max(nu, int(tr.User)+1), max(ni, int(tr.Item)+1), max(nt, int(tr.Tag)+1)
		}
		nu, ni, nt = nu+grow[round][0], ni+grow[round][1], nt+grow[round][2]
		before := store
		if store, err = store.Merge(delta, nu, ni, nt); err != nil {
			t.Fatalf("round %d: Merge: %v", round, err)
		}
		if len(delta) == 0 && grow[round] == [3]int{} && store != before {
			t.Fatalf("round %d: empty delta built a new store", round)
		}
		union = append(union, delta...)
		b := NewBuilder(nu, ni, nt)
		for _, tr := range union {
			b.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
		}
		want, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		checkSameStore(t, store, want)
		checkBlocks(t, store, false)
		checkBlocks(t, want, true)
		checkGlobalBlocks(t, store, false)
		checkGlobalBlocks(t, want, true)
		checkTriples(t, store, want)
		checkAgainstModel(t, store, union, nu, ni, nt)
		checkTagLists(t, store)
	}
}

// checkSameStore holds s to want, a Build over the same relation: the
// same counts, global lists posting for posting, item index and, list
// for list, per-user lists. The blocks those lists are cut into may
// differ: a merge splits a block that outgrows its limit in halves,
// where Build packs.
func checkSameStore(t *testing.T, s, want *Store) {
	t.Helper()
	if s.numUsers != want.numUsers || s.numItems != want.numItems || s.numTags != want.numTags ||
		s.numTriples != want.numTriples || s.totalAnnotations != want.totalAnnotations {
		t.Fatalf("merged store is %d×%d×%d with %d triples and %d annotations, a Build over the union %d×%d×%d, %d and %d",
			s.numUsers, s.numItems, s.numTags, s.numTriples, s.totalAnnotations,
			want.numUsers, want.numItems, want.numTags, want.numTriples, want.totalAnnotations)
	}
	if !reflect.DeepEqual(s.items, want.items) {
		t.Fatalf("item index differs from a Build over the union\n got %+v\nwant %+v", s.items, want.items)
	}
	for tag := TagID(0); int(tag) < s.numTags; tag++ {
		if g, w := s.globalList(tag), want.globalList(tag); !reflect.DeepEqual(g, w) || s.MaxTF(tag) != want.MaxTF(tag) {
			t.Fatalf("tag %d: global list %v (max %d), a Build over the union %v (max %d)", tag, g, s.MaxTF(tag), w, want.MaxTF(tag))
		}
		users, off, post := s.TagLists(tag)
		wu, wo, wp := want.TagLists(tag)
		if !reflect.DeepEqual(users, wu) || !reflect.DeepEqual(off, wo) || !reflect.DeepEqual(post, wp) {
			t.Fatalf("tag %d: lists %v %v %v, a Build over the union %v %v %v", tag, users, off, post, wu, wo, wp)
		}
	}
}

// checkBlocks holds every tag's blocks to their bounds: a block holds
// at least one list, and more than blockPosts postings only as a single
// list; its users ascend, on from the previous block's, and its list
// ends rise from above 0 to its postings' length, so every list lies in
// one block. A built store's blocks are also packed: no block could
// have taken the next one's first list.
func checkBlocks(t *testing.T, s *Store, built bool) {
	t.Helper()
	for tag := range TagID(s.numTags) {
		blocks, last := s.TagBlocks(tag), int32(-1)
		for k, b := range blocks {
			if len(b.users) == 0 || len(b.end) != len(b.users) || int(b.end[len(b.end)-1]) != len(b.post) {
				t.Fatalf("tag %d block %d: %d users, %d list ends, %d postings", tag, k, len(b.users), len(b.end), len(b.post))
			}
			for p, u := range b.users {
				if u <= last || len(b.list(p)) == 0 {
					t.Fatalf("tag %d block %d: users %v after %d, ends %v", tag, k, b.users, last, b.end)
				}
				last = u
			}
			if len(b.post) > blockPosts && len(b.users) > 1 {
				t.Fatalf("tag %d block %d: %d lists hold %d postings, over the %d a block holds", tag, k, len(b.users), len(b.post), blockPosts)
			}
			if built && k+1 < len(blocks) && len(b.post)+len(blocks[k+1].list(0)) <= blockPosts {
				t.Fatalf("tag %d block %d: %d postings, and the next block's first list of %d would have fit", tag, k, len(b.post), len(blocks[k+1].list(0)))
			}
		}
	}
}

// checkGlobalBlocks holds every tag's global blocks to their bounds:
// none is empty, none holds more than globalPosts postings, the length
// the store keeps is their sum, and the order is strictly (TF desc,
// item asc) within and across blocks. A built store's blocks are also
// full: only the last may hold fewer than globalPosts.
func checkGlobalBlocks(t *testing.T, s *Store, built bool) {
	t.Helper()
	for tag := range TagID(s.numTags) {
		blocks, n := s.GlobalBlocks(tag)
		var last *Posting
		sum := 0
		for k, b := range blocks {
			if len(b) == 0 || len(b) > globalPosts || built && k+1 < len(blocks) && len(b) != globalPosts {
				t.Fatalf("tag %d global block %d of %d holds %d postings, the limit is %d", tag, k, len(blocks), len(b), globalPosts)
			}
			for i := range b {
				if last != nil && byTFDesc(*last, b[i]) >= 0 {
					t.Fatalf("tag %d global block %d: %v after %v", tag, k, b[i], *last)
				}
				last = &b[i]
			}
			sum += len(b)
		}
		if sum != n {
			t.Fatalf("tag %d: global blocks hold %d postings, the store counts %d", tag, sum, n)
		}
	}
}

// blockSizes are the (blockPosts, globalPosts) the merge harness runs
// at: blocks of a few postings, which the scripts' short lists fill and
// split, and the sizes the store is built with.
var blockSizes = [][2]int{{2, 2}, {5, 5}, {blockPosts, globalPosts}}

// checkMergeScriptBlocks runs checkMergeScript at every one of
// blockSizes.
func checkMergeScriptBlocks(t *testing.T, data []byte) {
	t.Helper()
	defer func(user, global int) { blockPosts, globalPosts = user, global }(blockPosts, globalPosts)
	for _, size := range blockSizes {
		blockPosts, globalPosts = size[0], size[1]
		t.Logf("blockPosts %d, globalPosts %d", size[0], size[1])
		checkMergeScript(t, data)
	}
}

// checkTriples holds Triples(), which a store writes out from its
// tag-major lists on demand, to its contract: exactly what a Build over
// the same relation writes out, strictly ascending in (user, tag, item),
// every count positive and the one TF reports, NumTriples() of them and
// TotalAnnotations() in all.
func checkTriples(t *testing.T, s, want *Store) {
	t.Helper()
	trs := s.Triples()
	if !slices.Equal(trs, want.Triples()) {
		t.Fatalf("Triples() = %v, a Build over the union gives %v", trs, want.Triples())
	}
	var total int64
	for k, tr := range trs {
		if k > 0 && byUserTagItem(trs[k-1], tr) >= 0 {
			t.Fatalf("Triples() not strictly ascending at %d: %v then %v", k, trs[k-1], tr)
		}
		if tr.Count <= 0 || s.TF(tr.User, tr.Item, tr.Tag) != tr.Count {
			t.Fatalf("Triples() holds %v, TF says %d", tr, s.TF(tr.User, tr.Item, tr.Tag))
		}
		total += int64(tr.Count)
	}
	if len(trs) != s.NumTriples() || total != s.TotalAnnotations() {
		t.Fatalf("Triples() holds %d triples and %d annotations, the store counts %d and %d",
			len(trs), total, s.NumTriples(), s.TotalAnnotations())
	}
}

// checkTagLists holds the tag-major posting lists to their shape —
// users strictly ascending, offsets starting at 0, strictly rising and
// ending at the postings' length, every list in (TF desc, item asc)
// order — and their contents to Triples(): the same (user, item, tag,
// tf) tuples, each once.
func checkTagLists(t *testing.T, s *Store) {
	t.Helper()
	var got []Triple
	for tag := TagID(0); int(tag) < s.NumTags(); tag++ {
		users, off, post := s.TagLists(tag)
		if len(users) == 0 {
			if len(off) != 0 || len(post) != 0 {
				t.Fatalf("tag %d has no users but offsets %v and postings %v", tag, off, post)
			}
			continue
		}
		if len(off) != len(users)+1 || off[0] != 0 || int(off[len(users)]) != len(post) {
			t.Fatalf("tag %d: offsets %v do not cover %d users and %d postings", tag, off, len(users), len(post))
		}
		for p, u := range users {
			if p > 0 && users[p-1] >= u {
				t.Fatalf("tag %d: users %v not strictly ascending", tag, users)
			}
			if off[p] >= off[p+1] {
				t.Fatalf("tag %d: user %d has an empty list (offsets %v)", tag, u, off)
			}
			lst := post[off[p]:off[p+1]]
			for k, up := range lst {
				if k > 0 && byTFDesc(Posting(lst[k-1]), Posting(up)) >= 0 {
					t.Fatalf("tag %d: list of user %d out of order: %v", tag, u, lst)
				}
				got = append(got, Triple{User: u, Item: up.Item, Tag: tag, Count: up.TF})
			}
		}
	}
	sort.Slice(got, func(a, b int) bool { return byUserTagItem(got[a], got[b]) < 0 })
	if want := s.Triples(); len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("tag-major lists hold %v, Triples() %v", got, want)
	}
}

// checkAgainstModel reads the whole relation back through the store's
// accessors and compares it with sums taken straight from the triples.
func checkAgainstModel(t *testing.T, s *Store, union []Triple, nu, ni, nt int) {
	t.Helper()
	tf := make(map[Triple]int32)
	gtf := make(map[[2]int32]int32)
	var total int64
	for _, tr := range union {
		tf[Triple{User: tr.User, Item: tr.Item, Tag: tr.Tag}] += tr.Count
		gtf[[2]int32{tr.Item, tr.Tag}] += tr.Count
		total += int64(tr.Count)
	}
	if s.NumUsers() != nu || s.NumItems() != ni || s.NumTags() != nt || s.TotalAnnotations() != total || s.NumTriples() != len(tf) {
		t.Fatalf("store is %d×%d×%d, %d triples, %d annotations; want %d×%d×%d, %d, %d",
			s.NumUsers(), s.NumItems(), s.NumTags(), s.NumTriples(), s.TotalAnnotations(), nu, ni, nt, len(tf), total)
	}
	var triples []Triple
	for u := int32(0); int(u) < nu; u++ {
		var tags []TagID
		for tag := TagID(0); int(tag) < nt; tag++ {
			var lst []UserPosting
			for i := ItemID(0); int(i) < ni; i++ {
				c := tf[Triple{User: u, Item: i, Tag: tag}]
				if got := s.TF(u, i, tag); got != c {
					t.Fatalf("TF(%d,%d,%d) = %d, want %d", u, i, tag, got, c)
				}
				if c > 0 {
					lst = append(lst, UserPosting{Item: i, TF: c})
					triples = append(triples, Triple{User: u, Item: i, Tag: tag, Count: c})
				}
			}
			sort.SliceStable(lst, func(a, b int) bool { return lst[a].TF > lst[b].TF })
			if got := s.UserList(u, tag); !reflect.DeepEqual(got, lst) {
				t.Fatalf("UserList(%d,%d) = %v, want %v", u, tag, got, lst)
			}
			if lst != nil {
				tags = append(tags, tag)
			}
		}
		if got := s.UserTags(u); len(got) != len(tags) || len(tags) > 0 && !reflect.DeepEqual(got, tags) {
			t.Fatalf("UserTags(%d) = %v, want %v", u, got, tags)
		}
	}
	if got := s.Triples(); len(got) != len(triples) || len(triples) > 0 && !reflect.DeepEqual(got, triples) {
		t.Fatalf("Triples() = %v, want %v", got, triples)
	}
	for tag := TagID(0); int(tag) < nt; tag++ {
		var lst []Posting
		for i := ItemID(0); int(i) < ni; i++ {
			c := gtf[[2]int32{i, tag}]
			if got := s.GlobalTF(i, tag); got != c {
				t.Fatalf("GlobalTF(%d,%d) = %d, want %d", i, tag, got, c)
			}
			if c > 0 {
				lst = append(lst, Posting{Item: i, TF: c})
			}
		}
		sort.SliceStable(lst, func(a, b int) bool { return lst[a].TF > lst[b].TF })
		if got := s.globalList(tag); !reflect.DeepEqual(got, lst) {
			t.Fatalf("global list of tag %d = %v, want %v", tag, got, lst)
		}
		var head int32
		if len(lst) > 0 {
			head = lst[0].TF
		}
		if got := s.MaxTF(tag); got != head {
			t.Fatalf("MaxTF(%d) = %d, want %d", tag, got, head)
		}
	}
}

// mergeSeeds are the seeded scripts: the differential test runs them,
// the fuzz target starts from them.
func mergeSeeds() [][]byte {
	seeds := [][]byte{
		nil,
		{0, 0, 0, 0xFF, 0, 0, 0, 0xFF}, // empty base, empty deltas
		// one (user, tag) run whose TF order a later increment flips
		{0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 0xFF, 0, 0, 0, 2, 0, 0, 0, 2},
		// a delta made only of ids the base never had
		{0, 0, 0, 0, 2, 2, 2, 0xFF, 5, 9, 3, 0, 11, 15, 5, 1},
	}
	for seed := int64(1); seed <= 40; seed++ {
		seeds = append(seeds, randomMergeScript(rand.New(rand.NewSource(seed))))
	}
	return seeds
}

// TestMergeMatchesBuild: folding delta batches into a store one after
// another gives, after every batch, the relation a Build over the union
// gives, in blocks within their bounds — duplicate triples,
// TF-reordering increments, brand-new ids, empty deltas and bare
// universe growth included, with blocks of a few postings and of the
// default size.
func TestMergeMatchesBuild(t *testing.T) {
	for _, data := range mergeSeeds() {
		checkMergeScriptBlocks(t, data)
	}
}

func FuzzStoreMerge(f *testing.F) {
	for _, data := range mergeSeeds() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip() // the model check is cubic in the universe, linear in the script
		}
		checkMergeScriptBlocks(t, data)
	})
}

// TestMergeLeavesOldStoreIntact: readers may still hold the store a
// Merge started from, so it must answer as before, including for the
// tags whose lists the new store shares.
func TestMergeLeavesOldStoreIntact(t *testing.T) {
	old := smallStore(t)
	want := smallStore(t)
	merged, err := old.Merge([]Triple{{User: 1, Item: 1, Tag: 0, Count: 5}, {User: 2, Item: 0, Tag: 2, Count: 1}}, 4, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(old, want) {
		t.Fatalf("Merge changed the store it started from:\n got %+v\nwant %+v", old, want)
	}
	if got := merged.globalList(0); !reflect.DeepEqual(got, []Posting{{Item: 1, TF: 6}, {Item: 0, TF: 3}}) {
		t.Fatalf("merged global list of tag 0 = %v", got)
	}
	if &merged.tag(1).global[0] != &old.tag(1).global[0] {
		t.Fatal("the untouched tag's list was copied, not shared")
	}
}

// TestMergeSharesUntouchedTagLists: a merge hands the new store the very
// block table of every tag its delta does not mention, and builds a
// mentioned tag's without writing the old one — whether the delta
// reorders a list, adds a user to the tag, or brings a tag the store
// never had.
func TestMergeSharesUntouchedTagLists(t *testing.T) {
	deltas := map[string][]Triple{
		"frequency bump reorders a list": {{User: 0, Item: 1, Tag: 0, Count: 5}},
		"tag gains a user":               {{User: 2, Item: 1, Tag: 1, Count: 1}},
		"new user, new tag, two tags":    {{User: 3, Item: 4, Tag: 3, Count: 2}, {User: 3, Item: 0, Tag: 0, Count: 1}},
	}
	for name, delta := range deltas {
		old := smallStore(t)
		before := make([][]Block, old.NumTags()) // a deep copy
		for t := range before {
			for _, b := range old.TagBlocks(TagID(t)) {
				before[t] = append(before[t], Block{users: slices.Clone(b.users), end: slices.Clone(b.end), post: slices.Clone(b.post)})
			}
		}
		merged, err := old.Merge(delta, 4, 5, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for tag, want := range before {
			if got := old.TagBlocks(TagID(tag)); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Merge wrote the lists of tag %d of the store it started from:\n got %+v\nwant %+v", name, tag, got, want)
			}
		}
		mentioned := make(map[TagID]bool)
		for _, tr := range delta {
			mentioned[tr.Tag] = true
		}
		for tag := range TagID(old.NumTags()) { // every tag of smallStore has a list
			if is, was := merged.TagBlocks(tag), old.TagBlocks(tag); !mentioned[tag] && &is[0] != &was[0] {
				t.Fatalf("%s: the block table of tag %d, which the delta does not mention, was copied, not shared", name, tag)
			}
		}
		checkTagLists(t, merged)
		checkBlocks(t, merged, false)
	}
}

// TestMergeUniverseGrowthSharesArrays: a batch that only grows the
// universe — a Befriend that interns a new user, an item or tag
// registered and not used yet — copies nothing the growth does not
// lengthen: the new store has the very blocks and lists of the old one.
func TestMergeUniverseGrowthSharesArrays(t *testing.T) {
	old := smallStore(t)
	grown, err := old.Merge(nil, old.NumUsers()+2, old.NumItems()+1, old.NumTags()+1)
	if err != nil {
		t.Fatal(err)
	}
	if grown == old || grown.NumUsers() != 5 || grown.NumItems() != 5 || grown.NumTags() != 4 {
		t.Fatalf("grown store is %d×%d×%d", grown.NumUsers(), grown.NumItems(), grown.NumTags())
	}
	for k, was := range old.items {
		if is := grown.items[k]; &is.start[0] != &was.start[0] || &is.tags[0] != &was.tags[0] || &is.tf[0] != &was.tf[0] {
			t.Fatalf("item block %d was copied, not shared", k)
		}
	}
	for tag := range TagID(old.NumTags()) { // every tag of smallStore has a list
		if &grown.TagBlocks(tag)[0] != &old.TagBlocks(tag)[0] {
			t.Fatalf("the block table of tag %d was copied, not shared", tag)
		}
		if &grown.tag(tag).global[0] != &old.tag(tag).global[0] {
			t.Fatalf("the global list of tag %d was copied, not shared", tag)
		}
	}
	if len(grown.UserTags(4)) != 0 || grown.GlobalTF(4, 3) != 0 || grown.UserList(4, 3) != nil || grown.MaxTF(3) != 0 {
		t.Fatal("the new ids own something")
	}
	if f := grown.OwnBytes(old); f.TagBlocks != 0 || f.ItemBlocks != 0 || f.Global != 0 {
		t.Fatalf("growing the universe copied %+v", f)
	}
	checkTriples(t, grown, old)
	checkTagLists(t, grown)
}

// TestMergeCopiesOnlyTouchedBlocks: a merge of k triples into a store of
// many blocks shares every block it does not touch — a block of a tag's
// lists that owns none of the batch's users under that tag, a block of
// a global list that none of the batch's (item, tag) postings leaves or
// lands in, an item block none of its items is in — with the store it
// started from, and what the new store owns is the touched blocks,
// grown by at most the batch, and the tables.
func TestMergeCopiesOnlyTouchedBlocks(t *testing.T) {
	const users, items, tags = 3000, 20000, 400
	rng := rand.New(rand.NewSource(1))
	tagZ := rand.NewZipf(rng, 1.1, 1, tags-1)
	b := NewBuilder(users, items, tags)
	for range 200_000 {
		b.Add(int32(rng.Intn(users)), ItemID(rng.Intn(items)), TagID(tagZ.Uint64()))
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	trs := s.Triples()
	for _, k := range []int{1, 8, 64} {
		delta := make([]Triple, k)
		for j := range delta {
			if j%2 == 0 { // a triple the store has: an existing list grows
				delta[j] = trs[rng.Intn(len(trs))]
				delta[j].Count = 1
			} else {
				delta[j] = Triple{User: int32(rng.Intn(users)), Item: ItemID(rng.Intn(items)), Tag: TagID(tagZ.Uint64()), Count: 1}
			}
		}
		merged, err := s.Merge(delta, users, items, tags)
		if err != nil {
			t.Fatal(err)
		}
		touched := make(map[[2]int]bool) // (tag, block) of s
		touchedItems := make(map[int]bool)
		mentioned := make(map[TagID]bool)
		added := make(map[[2]int32]int32) // (item, tag): the frequency the batch adds
		for _, tr := range delta {
			if e := s.tag(tr.Tag); len(e.blocks) > 0 {
				touched[[2]int{int(tr.Tag), owner(e.firsts, tr.User)}] = true
			}
			touchedItems[int(tr.Item>>itemBlockShift)] = true
			mentioned[tr.Tag] = true
			added[[2]int32{tr.Item, tr.Tag}] += tr.Count
		}
		touchedGlobal := make(map[[2]int]bool) // (tag, global block) of s: a posting leaves or lands in it
		for it, c := range added {
			blocks, _ := s.GlobalBlocks(it[1])
			if len(blocks) == 0 {
				continue
			}
			was := s.GlobalTF(it[0], it[1])
			if was > 0 {
				touchedGlobal[[2]int{int(it[1]), globalOwner(blocks, Posting{Item: it[0], TF: was})}] = true
			}
			touchedGlobal[[2]int{int(it[1]), globalOwner(blocks, Posting{Item: it[0], TF: was + c})}] = true
		}
		var blockBound, itemBound, globalBound, headers int64
		headers = int64(len(merged.tagPages))*int64(unsafe.Sizeof([]tagEntry(nil))) + int64(len(merged.items))*int64(unsafe.Sizeof(itemBlock{}))
		pages := make(map[TagID]bool)
		for tag := range TagID(tags) {
			blocks, kept := s.TagBlocks(tag), make(map[*int32]bool)
			for _, b := range merged.TagBlocks(tag) {
				kept[&b.users[0]] = true
			}
			for j, b := range blocks {
				if !touched[[2]int{int(tag), j}] {
					if !kept[&b.users[0]] {
						t.Fatalf("k=%d: tag %d's block %d, which the batch does not touch, was copied", k, tag, j)
					}
					continue
				}
				blockBound += 4*int64(len(b.users)+len(b.end)) + 8*int64(len(b.post))
			}
			globals, keptGlobal := s.tag(tag).global, make(map[*Posting]bool)
			for _, b := range merged.tag(tag).global {
				keptGlobal[&b[0]] = true
			}
			for j, b := range globals {
				if !touchedGlobal[[2]int{int(tag), j}] {
					if !keptGlobal[&b[0]] {
						t.Fatalf("k=%d: tag %d's global block %d, which the batch does not touch, was copied", k, tag, j)
					}
					continue
				}
				globalBound += 8 * int64(len(b))
			}
			if mentioned[tag] {
				pages[tag>>tagPageShift] = true
				headers += int64(len(merged.TagBlocks(tag))) * int64(unsafe.Sizeof(Block{})+4) // a block and its first user
				globalBound += int64(len(merged.tag(tag).global)) * int64(unsafe.Sizeof([]Posting(nil)))
			}
		}
		headers += int64(len(pages)) * tagPageTags * int64(unsafe.Sizeof(tagEntry{}))
		for j, b := range s.items {
			if !touchedItems[j] {
				if &merged.items[j].start[0] != &b.start[0] {
					t.Fatalf("k=%d: item block %d, which the batch does not touch, was copied", k, j)
				}
				continue
			}
			itemBound += 4 * int64(len(b.start)+len(b.tags)+len(b.tf))
		}
		blockBound += 16 * int64(k) // a posting, and maybe a new user with its list end, per triple
		itemBound += 8 * int64(k)   // a tag and its frequency per triple
		globalBound += 8 * int64(len(added))
		f := merged.OwnBytes(s)
		t.Logf("k=%d: %d of %d tag blocks, %d global blocks, %d of %d item blocks and %d of %d tag pages touched; owns %+v",
			k, len(touched), countBlocks(s), len(touchedGlobal), len(touchedItems), len(s.items), len(pages), len(s.tagPages), f)
		if f.TagBlocks > blockBound || f.ItemBlocks > itemBound || f.Global > globalBound || f.Headers > headers {
			t.Fatalf("k=%d: the merged store owns %+v, over the touched blocks' %d and %d bytes, the touched global blocks' and their tables' %d and the tables' %d",
				k, f, blockBound, itemBound, globalBound, headers)
		}
		checkSameStore(t, merged, mustBuild(t, users, items, tags, append(slices.Clone(trs), delta...)))
		checkBlocks(t, merged, false)
		checkGlobalBlocks(t, merged, false)
	}
}

func countBlocks(s *Store) int {
	n := 0
	for tag := range TagID(s.NumTags()) {
		n += len(s.TagBlocks(tag))
	}
	return n
}

func mustBuild(t *testing.T, users, items, tags int, trs []Triple) *Store {
	t.Helper()
	b := NewBuilder(users, items, tags)
	for _, tr := range trs {
		b.AddCount(tr.User, tr.Item, tr.Tag, tr.Count)
	}
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestNoUniverseLimit: stores used to pack (user, item, tag) into 21
// bits each and panic beyond; ids past 2^21 must simply work.
func TestNoUniverseLimit(t *testing.T) {
	const n = 1<<21 + 1
	b := NewBuilder(n, n, 2)
	b.Add(n-1, n-1, 1)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s, err = s.Merge([]Triple{{User: n, Item: n, Tag: 1, Count: 2}}, n+1, n+1, 2); err != nil {
		t.Fatal(err)
	}
	if s.TF(n-1, n-1, 1) != 1 || s.TF(n, n, 1) != 2 || s.GlobalTF(n, 1) != 2 || len(s.UserList(n, 1)) != 1 {
		t.Fatal("lookups past 2^21 ids are wrong")
	}
}

// TestSizeLimitsAreErrors: what a store cannot represent — a frequency
// past int32, a universe smaller than the one merged into — comes back
// as an error from Build and Merge.
func TestSizeLimitsAreErrors(t *testing.T) {
	const big = 1<<31 - 1
	b := NewBuilder(1, 1, 1)
	b.AddCount(0, 0, 0, big)
	b.Add(0, 0, 0)
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a triple count past int32")
	}
	b = NewBuilder(2, 1, 1)
	b.AddCount(0, 0, 0, big)
	s, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge([]Triple{{User: 0, Item: 0, Tag: 0, Count: 1}}, 2, 1, 1); err == nil {
		t.Error("Merge accepted a triple count past int32")
	}
	if _, err := s.Merge([]Triple{{User: 1, Item: 0, Tag: 0, Count: 1}}, 2, 1, 1); err == nil {
		t.Error("Merge accepted a global frequency past int32")
	}
	if _, err := s.Merge(nil, 1, 1, 1); err == nil {
		t.Error("Merge accepted a shrunken universe")
	}
	if _, err := NewBuilder(-1, 0, 0).Build(); err == nil {
		t.Error("Build accepted a negative universe")
	}
}

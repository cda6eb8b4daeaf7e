// Package tagstore stores the user–item–tag annotation relation of a
// collaborative tagging site and exposes it through the two access paths
// classic top-k processing distinguishes:
//
//   - sequential access: per-tag global posting lists sorted by descending
//     tag frequency, consumed front-to-back by threshold algorithms;
//   - random access: per-(user,tag) lists and point lookups tf(u, i, t),
//     a binary search over the tag's sorted users, consumed by the
//     network-aware algorithm as the social frontier visits each user;
//   - the tag-pivoted join: per tag, the users who used it and their
//     (user,tag) lists back to back, consumed when a whole materialized
//     horizon is merged at once — one scan of the tag's users replaces a
//     binary search per horizon user.
//
// The tag-pivoted lists are the only copy of the relation a Store
// holds: the other structures index or aggregate it, and Triples()
// writes it out in canonical order for a snapshot, an export or an
// index build.
//
// A Store is immutable: all query-time structures are read-only and
// safe for concurrent use. Builder.Build makes one from scratch and
// Store.Merge makes the next one from a store and a batch of new
// triples; both run the same merge, Build from an empty store.
package tagstore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
)

// ItemID is a dense item identifier in [0, NumItems).
type ItemID = int32

// TagID is a dense tag identifier in [0, NumTags).
type TagID = int32

// Triple is one tagging action: user u annotated item i with tag t,
// count times (count ≥ 1; repeated annotation is meaningful on sites
// where an item can be re-bookmarked).
type Triple struct {
	User  int32
	Item  ItemID
	Tag   TagID
	Count int32
}

// Posting is one entry of a global per-tag list: an item and the total
// frequency with which the tag was applied to it across all users.
type Posting struct {
	Item ItemID
	TF   int32
}

// UserPosting is one entry of a per-(user,tag) list.
type UserPosting struct {
	Item ItemID
	TF   int32
}

// Builder accumulates triples before freezing them into a Store.
// Duplicate (user, item, tag) triples have their counts summed.
type Builder struct {
	numUsers int
	numItems int
	numTags  int
	triples  []Triple
}

// NewBuilder returns a Builder over the given universe sizes.
func NewBuilder(numUsers, numItems, numTags int) *Builder {
	return &Builder{numUsers: numUsers, numItems: numItems, numTags: numTags}
}

// Add records a tagging triple with count 1.
func (b *Builder) Add(user int32, item ItemID, tag TagID) {
	b.AddCount(user, item, tag, 1)
}

// AddCount records a tagging triple with an explicit count.
func (b *Builder) AddCount(user int32, item ItemID, tag TagID, count int32) {
	b.triples = append(b.triples, Triple{User: user, Item: item, Tag: tag, Count: count})
}

// Build validates and freezes the store: the accumulated triples are
// merged into an empty store, the same way compaction folds a batch of
// writes into a live one.
func (b *Builder) Build() (*Store, error) {
	return new(Store).merge(b.triples, b.numUsers, b.numItems, b.numTags)
}

// Store is the immutable tagging store.
type Store struct {
	numUsers, numItems, numTags int
	numTriples                  int // distinct (user, item, tag) triples

	// global per-tag posting lists sorted by (TF desc, Item asc)
	global [][]Posting
	// maxTF[t] = largest global TF of any item under tag t (0 if none)
	maxTF []int32

	// The per-(user, tag) posting lists, tag-major, and the one place
	// the (user, item, tag, count) tuples are stored: whatever a query
	// reads of them lies in its own tags' entries. A merge shares the
	// entry of every tag its delta does not mention with the store it
	// started from, as it does with global.
	byTag []tagLists // len numTags

	// Per-item tag CSR for gtf(i, t): item i's tags are
	// itTags[itStart[i]:itStart[i+1]] (sorted ascending) with their
	// global frequencies in itTF. Replaces the packed-key global point
	// map on the candidate-creation path.
	itStart []int32 // len numItems+1
	itTags  []TagID
	itTF    []int32

	totalAnnotations int64

	// The per-user tag CSR UserTags reads, built by its first call: user
	// u's distinct tags are userTags[userStart[u]:userStart[u+1]]. No
	// query and no merge reads it, so a served store never holds one.
	userOnce  sync.Once
	userStart []int32 // len numUsers+1
	userTags  []TagID
}

// tagLists holds one tag's per-user posting lists: users lists, in
// ascending order, everyone who used the tag, and the p-th of them owns
// post[off[p]:off[p+1]], sorted by (TF desc, Item asc). All three are
// nil for a tag nobody used.
type tagLists struct {
	users []int32
	off   []int32 // len(users)+1
	post  []UserPosting
}

// Merge returns a store holding s's triples plus delta (duplicates
// summed) over a universe that may have grown. s is left untouched and
// stays valid for readers still holding it: the new store copies what
// changed and shares the rest — the global and the per-user posting
// lists of the tags delta does not mention, and with an empty delta
// everything but the headers the grown universe lengthens — which is
// safe because neither store is written again.
// The cost is sorting delta, rewriting the lists of the tags it mentions
// and one linear copy of the per-item tag index (itTags/itTF); nothing
// is hashed and no triple delta leaves alone is moved. With
// nothing to fold in, Merge returns s itself.
func (s *Store) Merge(delta []Triple, numUsers, numItems, numTags int) (*Store, error) {
	if len(delta) == 0 && numUsers == s.numUsers && numItems == s.numItems && numTags == s.numTags {
		return s, nil
	}
	return s.merge(delta, numUsers, numItems, numTags)
}

func (s *Store) merge(delta []Triple, numUsers, numItems, numTags int) (*Store, error) {
	if numUsers < s.numUsers || numItems < s.numItems || numTags < s.numTags {
		return nil, fmt.Errorf("tagstore: universe (%d users, %d items, %d tags) smaller than the store's (%d, %d, %d)",
			numUsers, numItems, numTags, s.numUsers, s.numItems, s.numTags)
	}
	for _, tr := range delta {
		if tr.User < 0 || int(tr.User) >= numUsers {
			return nil, fmt.Errorf("tagstore: user %d outside [0,%d)", tr.User, numUsers)
		}
		if tr.Item < 0 || int(tr.Item) >= numItems {
			return nil, fmt.Errorf("tagstore: item %d outside [0,%d)", tr.Item, numItems)
		}
		if tr.Tag < 0 || int(tr.Tag) >= numTags {
			return nil, fmt.Errorf("tagstore: tag %d outside [0,%d)", tr.Tag, numTags)
		}
		if tr.Count <= 0 {
			return nil, fmt.Errorf("tagstore: non-positive count %d", tr.Count)
		}
	}
	// Offsets into a tag's postings are int32.
	if s.numTriples+len(delta) > math.MaxInt32 {
		return nil, fmt.Errorf("tagstore: %d triples, a store indexes at most %d", s.numTriples+len(delta), math.MaxInt32)
	}

	d := slices.Clone(delta)
	slices.SortFunc(d, byUserTagItem)
	d, err := coalesce(d, byUserTagItem, func(tr *Triple) *int32 { return &tr.Count })
	if err != nil {
		return nil, err
	}
	n := &Store{numUsers: numUsers, numItems: numItems, numTags: numTags, numTriples: s.numTriples, totalAnnotations: s.totalAnnotations}
	agg := make([]tagItem, len(d))
	for k, tr := range d {
		agg[k] = tagItem{item: tr.Item, tag: tr.Tag, tf: tr.Count}
		n.totalAnnotations += int64(tr.Count)
	}
	slices.SortFunc(agg, byItemTag)
	if agg, err = coalesce(agg, byItemTag, func(e *tagItem) *int32 { return &e.tf }); err != nil {
		return nil, err
	}
	if err := n.mergeTagLists(s, d); err != nil {
		return nil, err
	}
	if err := n.mergeItems(s, agg); err != nil {
		return nil, err
	}
	n.mergeGlobal(s, agg)
	return n, nil
}

// tagItem is what a delta adds to one (tag, item) pair: tf holds the
// added frequency until mergeItems turns it into the new global one and
// records the previous one in old.
type tagItem struct {
	item    ItemID
	tag     TagID
	old, tf int32
}

func (e tagItem) posting() Posting { return Posting{Item: e.item, TF: e.tf} }

func byUserTagItem(a, b Triple) int {
	if a.User != b.User {
		return cmp.Compare(a.User, b.User)
	}
	if a.Tag != b.Tag {
		return cmp.Compare(a.Tag, b.Tag)
	}
	return cmp.Compare(a.Item, b.Item)
}

func byItemTag(a, b tagItem) int {
	if a.item != b.item {
		return cmp.Compare(a.item, b.item)
	}
	return cmp.Compare(a.tag, b.tag)
}

// byTFDesc is the order of every posting list: TF descending, then item.
func byTFDesc(a, b Posting) int {
	if a.TF != b.TF {
		return cmp.Compare(b.TF, a.TF)
	}
	return cmp.Compare(a.Item, b.Item)
}

// addTF sums two frequencies. Besides the triple count, int32 is the
// one size limit a store has.
func addTF(a, b int32) (int32, error) {
	if a > math.MaxInt32-b {
		return 0, fmt.Errorf("tagstore: frequency %d+%d overflows int32", a, b)
	}
	return a + b, nil
}

// coalesce folds, in place, every run of neighbours that compare equal
// into its first element, summing the frequency tf points at.
func coalesce[T any](xs []T, compare func(a, b T) int, tf func(*T) *int32) ([]T, error) {
	w := 0
	for k := range xs {
		if w > 0 && compare(xs[w-1], xs[k]) == 0 {
			sum, err := addTF(*tf(&xs[w-1]), *tf(&xs[k]))
			if err != nil {
				return nil, err
			}
			*tf(&xs[w-1]) = sum
			continue
		}
		xs[w] = xs[k]
		w++
	}
	return xs[:w], nil
}

// seek finds tag t in owner id's segment tags[start[id]:start[id+1]] of
// a CSR: its index and true, or the index it would be inserted at.
func seek(start []int32, tags []TagID, id int32, t TagID) (int32, bool) {
	lo, end := start[id], start[id+1]
	hi := end
	for lo < hi {
		mid := (lo + hi) / 2
		if tags[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < end && tags[lo] == t
}

// seekGrown is seek for an id that may lie beyond the n owners the CSR
// was built for; such an id owns nothing yet.
func seekGrown(start []int32, tags []TagID, n int, id int32, t TagID) (int32, bool) {
	if int(id) >= n {
		return int32(len(tags)), false
	}
	return seek(start, tags, id, t)
}

// shiftStarts returns the start array of a CSR grown from oldN owners
// and oldLen entries to n owners: owners lists, in ascending order, the
// owner of every entry inserted. With nothing inserted and no owner
// gained that is old itself.
func shiftStarts(old []int32, oldN, oldLen, n int, owners []int32) []int32 {
	if len(owners) == 0 && len(old) == n+1 {
		return old
	}
	start := make([]int32, n+1)
	k := 0
	for id := range start {
		for k < len(owners) && int(owners[k]) < id {
			k++
		}
		base := oldLen
		if id < oldN {
			base = int(old[id])
		}
		start[id] = int32(base + k)
	}
	return start
}

// mergeTagLists fills the tag-major posting lists, the relation itself,
// from s's plus the canonical delta d. A tag d does not mention keeps
// the lists it has in s. A tag it does gets new arrays — s's are never
// written — into which the lists of the users d leaves alone are
// block-copied from s with their offsets shifted, and the list of a
// (user, tag) pair d touches is that pair's old list, if it had one,
// plus its run of d, summed by item and sorted. d's (user, tag) order
// brings each tag its touched users in ascending order, so the pass
// needs one cursor per tag into s's lists.
func (n *Store) mergeTagLists(s *Store, d []Triple) error {
	was := make([]tagLists, n.numTags) // s's lists over the grown universe
	copy(was, s.byTag)
	n.byTag = slices.Clone(was)
	// A tag gains at most a user per run of d under it and a posting per
	// triple. What a repeated pair or triple leaves unused is trimmed off
	// at the end and stays as a few bytes of spare capacity, gone when
	// the tag is next written: that sizes from lengths again.
	newUsers, newPosts := make([]int, n.numTags), make([]int, n.numTags)
	for k, tr := range d {
		if k == 0 || tr.User != d[k-1].User || tr.Tag != d[k-1].Tag {
			newUsers[tr.Tag]++
		}
		newPosts[tr.Tag]++
	}
	for t, gain := range newUsers {
		if gain > 0 {
			n.byTag[t] = tagLists{
				users: make([]int32, len(was[t].users)+gain),
				off:   make([]int32, len(was[t].users)+gain+1),
				post:  make([]UserPosting, len(was[t].post)+newPosts[t]),
			}
		}
	}
	// Per tag: the last rest[t] users of s's lists are not carried over
	// yet, and n's lists hold users[t] users and posts[t] postings so far.
	rest, users, posts := make([]int32, n.numTags), make([]int32, n.numTags), make([]int32, n.numTags)
	for t := range s.byTag {
		rest[t] = int32(len(was[t].users))
	}
	carry := func(t TagID, count int32) {
		if count == 0 {
			return
		}
		old, l := &was[t], &n.byTag[t]
		lo := int32(len(old.users)) - rest[t]
		hi := lo + count
		copy(l.users[users[t]:], old.users[lo:hi])
		shift := posts[t] - old.off[lo]
		for p, off := range old.off[lo:hi] {
			l.off[int(users[t])+p] = off + shift
		}
		posts[t] += int32(copy(l.post[posts[t]:], old.post[old.off[lo]:old.off[hi]]))
		users[t] += count
		rest[t] -= count
	}
	var byItem []UserPosting // scratch: a touched pair's old list in item order, as its run of d is
	for a, b := 0, 0; a < len(d); a = b {
		u, t := d[a].User, d[a].Tag
		for b < len(d) && d[b].User == u && d[b].Tag == t {
			b++
		}
		// With nothing of s's left under t — every pair of a Build —
		// there is nothing to place u in and no old list.
		var old []UserPosting
		if w := &was[t]; rest[t] > 0 {
			p, found := slices.BinarySearch(w.users[len(w.users)-int(rest[t]):], u)
			carry(t, int32(p))
			if found {
				q := len(w.users) - int(rest[t])
				byItem = append(byItem[:0], w.post[w.off[q]:w.off[q+1]]...)
				slices.SortFunc(byItem, func(a, b UserPosting) int { return cmp.Compare(a.Item, b.Item) })
				old = byItem
				rest[t]--
			}
		}
		l := &n.byTag[t]
		l.users[users[t]], l.off[users[t]] = u, posts[t]
		users[t]++
		run := l.post[posts[t]:posts[t]]
		n.numTriples -= len(old)
		for _, tr := range d[a:b] {
			for len(old) > 0 && old[0].Item < tr.Item {
				run, old = append(run, old[0]), old[1:]
			}
			if len(old) > 0 && old[0].Item == tr.Item {
				sum, err := addTF(old[0].TF, tr.Count)
				if err != nil {
					return err
				}
				tr.Count, old = sum, old[1:]
			}
			run = append(run, UserPosting{Item: tr.Item, TF: tr.Count})
		}
		run = append(run, old...)
		n.numTriples += len(run)
		posts[t] += int32(len(run))
		if len(run) > 1 { // most lists hold one posting
			slices.SortFunc(run, func(a, b UserPosting) int { return byTFDesc(Posting(a), Posting(b)) })
		}
	}
	for t, gain := range newUsers {
		if gain > 0 {
			carry(TagID(t), rest[t])
			l := &n.byTag[t]
			l.users, l.off, l.post = l.users[:users[t]], l.off[:users[t]+1], l.post[:posts[t]]
			l.off[users[t]] = posts[t]
		}
	}
	return nil
}

// mergeItems patches the per-item CSR in one pass over s's, and turns
// every agg entry (sorted by item, tag) from "frequency added" into
// "global frequency before and after". An empty agg shares s's arrays.
func (n *Store) mergeItems(s *Store, agg []tagItem) error {
	if len(agg) == 0 {
		n.itStart = shiftStarts(s.itStart, s.numItems, len(s.itTags), n.numItems, nil)
		n.itTags, n.itTF = s.itTags, s.itTF
		return nil
	}
	n.itTags = make([]TagID, 0, len(s.itTags)+len(agg))
	n.itTF = make([]int32, 0, len(s.itTags)+len(agg))
	next := int32(0) // first entry of s not carried over yet
	carry := func(upTo int32) {
		n.itTags = append(n.itTags, s.itTags[next:upTo]...)
		n.itTF = append(n.itTF, s.itTF[next:upTo]...)
		next = upTo
	}
	var newEntryItems []int32
	for k := range agg {
		e := &agg[k]
		p, found := seekGrown(s.itStart, s.itTags, s.numItems, e.item, e.tag)
		carry(p)
		if found {
			e.old = s.itTF[p]
			next = p + 1
		} else {
			newEntryItems = append(newEntryItems, e.item)
		}
		var err error
		if e.tf, err = addTF(e.old, e.tf); err != nil {
			return err
		}
		n.itTags = append(n.itTags, e.tag)
		n.itTF = append(n.itTF, e.tf)
	}
	carry(int32(len(s.itTags)))
	n.itStart = shiftStarts(s.itStart, s.numItems, len(s.itTags), n.numItems, newEntryItems)
	return nil
}

// mergeGlobal shares s's global list of every tag agg does not mention
// and rebuilds the others: the postings whose frequency changed are
// taken out of the old list and merged back in at their new rank.
func (n *Store) mergeGlobal(s *Store, agg []tagItem) {
	n.global = make([][]Posting, n.numTags)
	copy(n.global, s.global)
	n.maxTF = make([]int32, n.numTags)
	copy(n.maxTF, s.maxTF)
	slices.SortFunc(agg, func(a, b tagItem) int {
		if a.tag != b.tag {
			return cmp.Compare(a.tag, b.tag)
		}
		return byTFDesc(a.posting(), b.posting())
	})
	var moved []int // where the re-ranked postings sat in the old list
	for a := 0; a < len(agg); {
		t := agg[a].tag
		b := a + 1
		for b < len(agg) && agg[b].tag == t {
			b++
		}
		old := n.global[t] // nil for a tag s did not have
		moved = moved[:0]
		for _, e := range agg[a:b] {
			if e.old > 0 {
				p, _ := slices.BinarySearchFunc(old, Posting{Item: e.item, TF: e.old}, byTFDesc)
				moved = append(moved, p)
			}
		}
		slices.Sort(moved)
		lst := make([]Posting, 0, len(old)-len(moved)+b-a)
		for i, m, j := 0, 0, a; i < len(old) || j < b; {
			switch {
			case m < len(moved) && moved[m] == i:
				i, m = i+1, m+1
			case j == b || i < len(old) && byTFDesc(old[i], agg[j].posting()) < 0:
				lst = append(lst, old[i])
				i++
			default:
				lst = append(lst, agg[j].posting())
				j++
			}
		}
		n.global[t], n.maxTF[t] = lst, lst[0].TF
		a = b
	}
}

// NumUsers reports the user universe size.
func (s *Store) NumUsers() int { return s.numUsers }

// NumItems reports the item universe size.
func (s *Store) NumItems() int { return s.numItems }

// NumTags reports the tag universe size.
func (s *Store) NumTags() int { return s.numTags }

// NumTriples reports the number of distinct (user, item, tag) triples.
func (s *Store) NumTriples() int { return s.numTriples }

// TotalAnnotations reports the sum of all counts.
func (s *Store) TotalAnnotations() int64 { return s.totalAnnotations }

// userTagIndex builds the per-user tag CSR, exactly sized, by a
// counting sort of the tag-major lists by user: visiting the tags in
// ascending order appends each user's tags in order.
func (s *Store) userTagIndex() (start []int32, tags []TagID) {
	start = make([]int32, s.numUsers+1)
	for _, l := range s.byTag {
		for _, u := range l.users {
			start[u+1]++
		}
	}
	for u := range s.numUsers {
		start[u+1] += start[u]
	}
	tags = make([]TagID, start[s.numUsers])
	// start[u] is u's fill cursor, and ends at u's end — u+1's start —
	// so the array shifts back by one owner afterwards.
	for t, l := range s.byTag {
		for _, u := range l.users {
			tags[start[u]] = TagID(t)
			start[u]++
		}
	}
	copy(start[1:], start[:s.numUsers])
	start[0] = 0
	return start, tags
}

// Triples returns the relation sorted by (user, tag, item), written out
// anew on every call from the tag-major lists: users in ascending order
// (a transient userTagIndex) meet each tag's lists in the order the tag
// stores them, so a cursor per tag finds every list without a search.
func (s *Store) Triples() []Triple {
	start, tags := s.userTagIndex()
	trs := make([]Triple, 0, s.numTriples)
	seen := make([]int32, s.numTags) // users of each tag already written
	for u := int32(0); int(u) < s.numUsers; u++ {
		for _, t := range tags[start[u]:start[u+1]] {
			l, p, from := &s.byTag[t], seen[t], len(trs)
			seen[t]++
			for _, up := range l.post[l.off[p]:l.off[p+1]] {
				trs = append(trs, Triple{User: u, Item: up.Item, Tag: t, Count: up.TF})
			}
			slices.SortFunc(trs[from:], byUserTagItem)
		}
	}
	return trs
}

// GlobalList returns the global posting list of tag t, sorted by
// descending total frequency. The slice aliases internal storage.
func (s *Store) GlobalList(t TagID) []Posting { return s.global[t] }

// MaxTF returns the largest global frequency under tag t; it is the
// per-list score ceiling threshold algorithms use.
func (s *Store) MaxTF(t TagID) int32 { return s.maxTF[t] }

// UserList returns the posting list of (user u, tag t), sorted by
// descending frequency, or nil when u never used t. The lookup is a
// binary search over the tag's ascending users, an array every lookup
// under that tag shares.
func (s *Store) UserList(u int32, t TagID) []UserPosting {
	l := &s.byTag[t]
	if p, ok := slices.BinarySearch(l.users, u); ok {
		return l.post[l.off[p]:l.off[p+1]]
	}
	return nil
}

// TagLists returns every posting list under tag t: the users who used
// it in ascending order, and the p-th user's list — the one UserList
// returns — is post[off[p]:off[p+1]]. The slices alias internal storage.
func (s *Store) TagLists(t TagID) (users, off []int32, post []UserPosting) {
	l := &s.byTag[t]
	return l.users, l.off, l.post
}

// UserTags returns the sorted distinct tags user u has used. The slice
// aliases internal storage, an index the first call builds (once).
func (s *Store) UserTags(u int32) []TagID {
	s.userOnce.Do(func() { s.userStart, s.userTags = s.userTagIndex() })
	return s.userTags[s.userStart[u]:s.userStart[u+1]]
}

// TF returns tf(u, i, t): how many times user u applied tag t to item i.
// It is UserList's search and a scan of that list, which is short and
// in frequency order, not item order.
func (s *Store) TF(u int32, i ItemID, t TagID) int32 {
	for _, p := range s.UserList(u, t) {
		if p.Item == i {
			return p.TF
		}
	}
	return 0
}

// GlobalTF returns the total frequency of tag t on item i across users:
// a binary search over item i's sorted tag segment in the flat CSR.
func (s *Store) GlobalTF(i ItemID, t TagID) int32 {
	if j, ok := seek(s.itStart, s.itTags, i, t); ok {
		return s.itTF[j]
	}
	return 0
}

// Stats summarizes the corpus; it backs Table 1.
type Stats struct {
	Users, Items, Tags  int
	Triples             int
	Annotations         int64
	AvgTriplesPerUser   float64
	DistinctItemsTagged int
	DistinctTagsUsed    int
	MaxGlobalListLen    int
}

// ComputeStats derives corpus statistics.
func (s *Store) ComputeStats() Stats {
	st := Stats{
		Users:       s.numUsers,
		Items:       s.numItems,
		Tags:        s.numTags,
		Triples:     s.numTriples,
		Annotations: s.totalAnnotations,
	}
	if s.numUsers > 0 {
		st.AvgTriplesPerUser = float64(s.numTriples) / float64(s.numUsers)
	}
	for i := range s.numItems {
		if s.itStart[i] < s.itStart[i+1] {
			st.DistinctItemsTagged++
		}
	}
	for t := range s.global {
		if len(s.global[t]) > 0 {
			st.DistinctTagsUsed++
		}
		if len(s.global[t]) > st.MaxGlobalListLen {
			st.MaxGlobalListLen = len(s.global[t])
		}
	}
	return st
}

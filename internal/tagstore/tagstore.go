// Package tagstore stores the user–item–tag annotation relation of a
// collaborative tagging site and exposes it through the two access paths
// classic top-k processing distinguishes:
//
//   - sequential access: per-tag global posting lists sorted by descending
//     tag frequency, consumed front-to-back by threshold algorithms;
//   - random access: per-(user,tag) lists and point lookups tf(u, i, t),
//     both binary searches over flat sorted arrays, consumed by the
//     network-aware algorithm as the social frontier visits each user;
//   - the tag-pivoted join: per tag, the users who used it with a
//     reference to each one's (user,tag) list, consumed when a whole
//     materialized horizon is merged at once — one scan of the tag's
//     users replaces a binary search per horizon user.
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
	// canonical triples sorted by (user, tag, item); a (user, tag) run
	// sits at the same offsets here as in userPostings
	triples []Triple

	// global per-tag posting lists sorted by (TF desc, Item asc)
	global [][]Posting
	// maxTF[t] = largest global TF of any item under tag t (0 if none)
	maxTF []int32

	// Per-user tag CSR: user u's distinct tags are
	// utTags[utStart[u]:utStart[u+1]] (sorted ascending), and the tag at
	// index j — run j — owns userPostings[utOff[j]:utOff[j+1]]. A flat
	// binary search over the (small) per-user tag segment replaces the
	// packed-key hash lookups the random-access path used to pay per
	// settled user — no hashing, no map runtime, cache-local.
	utStart      []int32 // len numUsers+1
	utTags       []TagID // one per run
	utOff        []int32 // len(utTags)+1
	userPostings []UserPosting

	// Tag-pivoted index over the same runs: tag t was used by
	// tagUsers[t] (ascending), and the p-th of them owns run
	// tuRuns[tuStart[t]+p]. The user lists change only when a
	// (user, tag) pair is new, so a merge shares the lists of the tags
	// that gained none with the store it started from, as it does with
	// global; run numbers shift with every new pair, so tuRuns is
	// rewritten.
	tagUsers [][]int32
	tuStart  []int32 // len numTags+1
	tuRuns   []int32 // one per run

	// Per-item tag CSR for gtf(i, t): item i's tags are
	// itTags[itStart[i]:itStart[i+1]] (sorted ascending) with their
	// global frequencies in itTF. Replaces the packed-key global point
	// map on the candidate-creation path.
	itStart []int32 // len numItems+1
	itTags  []TagID
	itTF    []int32

	totalAnnotations int64
}

// Merge returns a store holding s's triples plus delta (duplicates
// summed) over a universe that may have grown. s is left untouched and
// stays valid for readers still holding it: the new store copies what
// changed and shares the rest — the global lists of the tags delta does
// not mention, the user lists of the tags that gained no user — which
// is safe because neither store is written again.
// The cost is sorting delta plus one linear copy of s; nothing is
// hashed, and only the (user, tag) runs and tag lists delta touches are
// re-ordered. With nothing to fold in, Merge returns s itself.
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
	// Offsets into the triples are int32.
	if len(s.triples)+len(delta) > math.MaxInt32 {
		return nil, fmt.Errorf("tagstore: %d triples, a store indexes at most %d", len(s.triples)+len(delta), math.MaxInt32)
	}

	d := slices.Clone(delta)
	slices.SortFunc(d, byUserTagItem)
	d, err := coalesce(d, byUserTagItem, func(tr *Triple) *int32 { return &tr.Count })
	if err != nil {
		return nil, err
	}
	n := &Store{numUsers: numUsers, numItems: numItems, numTags: numTags, totalAnnotations: s.totalAnnotations}
	agg := make([]tagItem, len(d))
	for k, tr := range d {
		agg[k] = tagItem{item: tr.Item, tag: tr.Tag, tf: tr.Count}
		n.totalAnnotations += int64(tr.Count)
	}
	slices.SortFunc(agg, byItemTag)
	if agg, err = coalesce(agg, byItemTag, func(e *tagItem) *int32 { return &e.tf }); err != nil {
		return nil, err
	}
	newRunTags, err := n.mergeUsers(s, d)
	if err != nil {
		return nil, err
	}
	n.mergeTagUsers(s, newRunTags)
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
// owner of every entry inserted.
func shiftStarts(old []int32, oldN, oldLen, n int, owners []int32) []int32 {
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

// mergeUsers fills n.triples and the per-user CSR from s plus the
// canonical delta d, and returns the tag of every (user, tag) pair d
// introduced. Runs of s that d does not touch are block-copied with
// their offsets shifted; a touched run is merged by item and only its
// postings are re-sorted.
func (n *Store) mergeUsers(s *Store, d []Triple) ([]TagID, error) {
	// Count the runs first: a snapshot lives as long as the service, so
	// its arrays get the capacity they need and no more.
	runs := len(s.utTags)
	for k, tr := range d {
		if k == 0 || tr.User != d[k-1].User || tr.Tag != d[k-1].Tag {
			runs++
		}
	}
	n.triples = make([]Triple, 0, len(s.triples)+len(d))
	n.userPostings = make([]UserPosting, 0, len(s.triples)+len(d))
	n.utTags = make([]TagID, 0, runs)
	n.utOff = make([]int32, 0, runs+1)

	next := int32(0) // first run of s not carried over yet
	carry := func(upTo int32) {
		if upTo == next {
			return
		}
		lo, hi := s.utOff[next], s.utOff[upTo]
		shift := int32(len(n.triples)) - lo
		n.triples = append(n.triples, s.triples[lo:hi]...)
		n.userPostings = append(n.userPostings, s.userPostings[lo:hi]...)
		n.utTags = append(n.utTags, s.utTags[next:upTo]...)
		for _, off := range s.utOff[next:upTo] {
			n.utOff = append(n.utOff, off+shift)
		}
		next = upTo
	}
	// The runs d brings that s lacks, at most every run of d.
	newRunUsers := make([]int32, 0, runs-len(s.utTags))
	newRunTags := make([]TagID, 0, runs-len(s.utTags))
	for a := 0; a < len(d); {
		u, t := d[a].User, d[a].Tag
		b := a + 1
		for b < len(d) && d[b].User == u && d[b].Tag == t {
			b++
		}
		r, found := seekGrown(s.utStart, s.utTags, s.numUsers, u, t)
		carry(r)
		var old []Triple
		if found {
			old = s.triples[s.utOff[r]:s.utOff[r+1]]
			next = r + 1
		} else {
			newRunUsers, newRunTags = append(newRunUsers, u), append(newRunTags, t)
		}
		start := len(n.triples)
		for _, tr := range d[a:b] {
			for len(old) > 0 && old[0].Item < tr.Item {
				n.triples, old = append(n.triples, old[0]), old[1:]
			}
			if len(old) > 0 && old[0].Item == tr.Item {
				sum, err := addTF(old[0].Count, tr.Count)
				if err != nil {
					return nil, err
				}
				tr.Count, old = sum, old[1:]
			}
			n.triples = append(n.triples, tr)
		}
		n.triples = append(n.triples, old...)
		for _, tr := range n.triples[start:] {
			n.userPostings = append(n.userPostings, UserPosting{Item: tr.Item, TF: tr.Count})
		}
		slices.SortFunc(n.userPostings[start:], func(a, b UserPosting) int { return byTFDesc(Posting(a), Posting(b)) })
		n.utTags = append(n.utTags, t)
		n.utOff = append(n.utOff, int32(start))
		a = b
	}
	carry(int32(len(s.utTags)))
	n.utOff = append(n.utOff, int32(len(n.triples)))
	n.utStart = shiftStarts(s.utStart, s.numUsers, len(s.utTags), n.numUsers, newRunUsers)
	return newRunTags, nil
}

// mergeTagUsers fills the tag-pivoted index once the per-user CSR is in
// place. A tag's user list is shared with s unless the tag is among
// newRunTags, the tags of the runs s did not have; the lists that are
// not shared, and every run number, are dealt out in one pass over the
// runs, whose (user, tag) order hands each tag its users in ascending
// order.
func (n *Store) mergeTagUsers(s *Store, newRunTags []TagID) {
	n.tagUsers = make([][]int32, n.numTags)
	copy(n.tagUsers, s.tagUsers)
	n.tuStart = make([]int32, n.numTags+1)
	for _, t := range newRunTags {
		n.tuStart[t+1]++ // users tag t gains; the list's end offset below
	}
	grown := make([]bool, n.numTags)
	for t, users := range n.tagUsers {
		if added := int(n.tuStart[t+1]); added > 0 {
			grown[t] = true
			n.tagUsers[t] = make([]int32, len(users)+added)
		}
		n.tuStart[t+1] = n.tuStart[t] + int32(len(n.tagUsers[t]))
	}
	n.tuRuns = make([]int32, len(n.utTags))
	fill := slices.Clone(n.tuStart[:n.numTags])
	for u := 0; u < n.numUsers; u++ {
		for j := n.utStart[u]; j < n.utStart[u+1]; j++ {
			t := n.utTags[j]
			if grown[t] {
				n.tagUsers[t][fill[t]-n.tuStart[t]] = int32(u)
			}
			n.tuRuns[fill[t]] = j
			fill[t]++
		}
	}
}

// mergeItems patches the per-item CSR in one pass over s's, and turns
// every agg entry (sorted by item, tag) from "frequency added" into
// "global frequency before and after".
func (n *Store) mergeItems(s *Store, agg []tagItem) error {
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
func (s *Store) NumTriples() int { return len(s.triples) }

// TotalAnnotations reports the sum of all counts.
func (s *Store) TotalAnnotations() int64 { return s.totalAnnotations }

// Triples returns the canonical sorted triples. The slice aliases
// internal storage and must not be modified.
func (s *Store) Triples() []Triple { return s.triples }

// GlobalList returns the global posting list of tag t, sorted by
// descending total frequency. The slice aliases internal storage.
func (s *Store) GlobalList(t TagID) []Posting { return s.global[t] }

// MaxTF returns the largest global frequency under tag t; it is the
// per-list score ceiling threshold algorithms use.
func (s *Store) MaxTF(t TagID) int32 { return s.maxTF[t] }

// UserList returns the posting list of (user u, tag t), sorted by
// descending frequency, or nil when u never used t. The lookup is a
// binary search over u's (small, sorted) tag segment in the flat CSR —
// no hashing, no pointer chasing.
func (s *Store) UserList(u int32, t TagID) []UserPosting {
	if j, ok := seek(s.utStart, s.utTags, u, t); ok {
		return s.Run(j)
	}
	return nil
}

// Run returns the posting list of run j, a number TagUsers gave: the
// list UserList returns for that run's (user, tag).
func (s *Store) Run(j int32) []UserPosting {
	return s.userPostings[s.utOff[j]:s.utOff[j+1]]
}

// TagUsers returns the users who used tag t in ascending order and,
// beside each, the number of that user's run under t (see Run). Both
// slices alias internal storage.
func (s *Store) TagUsers(t TagID) (users, runs []int32) {
	return s.tagUsers[t], s.tuRuns[s.tuStart[t]:s.tuStart[t+1]]
}

// UserTags returns the sorted distinct tags user u has used. The slice
// aliases internal storage.
func (s *Store) UserTags(u int32) []TagID {
	return s.utTags[s.utStart[u]:s.utStart[u+1]]
}

// TF returns tf(u, i, t): how many times user u applied tag t to item i.
// The (user, tag) run UserList would return is found the same way and
// then searched by item in the canonical triples, which keep the run in
// item order.
func (s *Store) TF(u int32, i ItemID, t TagID) int32 {
	j, ok := seekGrown(s.utStart, s.utTags, s.numUsers, u, t)
	if !ok {
		return 0
	}
	run := s.triples[s.utOff[j]:s.utOff[j+1]]
	k, ok := slices.BinarySearchFunc(run, i, func(tr Triple, i ItemID) int { return cmp.Compare(tr.Item, i) })
	if !ok {
		return 0
	}
	return run[k].Count
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
		Triples:     len(s.triples),
		Annotations: s.totalAnnotations,
	}
	if s.numUsers > 0 {
		st.AvgTriplesPerUser = float64(len(s.triples)) / float64(s.numUsers)
	}
	items := make(map[ItemID]struct{})
	for _, tr := range s.triples {
		items[tr.Item] = struct{}{}
	}
	st.DistinctItemsTagged = len(items)
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

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
// Layout. A tag's per-user lists are cut into blocks of consecutive
// users (Block), each about 4 KB of postings: Build packs a tag's lists
// greedily into blocks of at most blockPosts postings, and a list longer
// than that is a block of its own, so no list straddles two blocks. The
// per-item tag index behind GlobalTF is cut the same way, into blocks of
// a fixed 64 items, so finding an item's block is a shift. A tag's
// global list is cut into blocks of at most globalPosts postings in
// list order (GlobalBlocks), which a reader walks with a (block,
// offset) cursor. The per-tag entries (the two block tables, the
// global list's length, maxTF) lie in pages of 64 tags. Build lays each
// tag's blocks of either kind, and the item index's, out back to back
// in one backing array; the tables are all a read-only store adds.
//
// A Store is immutable: all query-time structures are read-only and
// safe for concurrent use. Builder.Build makes one from scratch and
// Store.Merge makes the next one from a store and a batch of new
// triples; both run the same merge, Build from an empty store. A merge
// is copy-on-write at block grain: it copies the block tables of each
// tag its batch touches and the blocks and pages the batch touches, and
// shares every other block and page with the store it started from. A
// touched global block is one a re-ranked posting leaves or lands in,
// each found by a binary search over the blocks' first postings. A
// touched block that outgrows its limit splits in two — a per-user one
// at the list boundary nearest its middle — so each half has room to
// grow again, and a global block left empty is dropped. The merge
// sorts three times — the triples tag-major, their per-(item, tag)
// sums and those in global-list order — and a sort of at least 4,096
// elements is LSD radix passes over a key packed from the universe
// widths, so a Build costs O(T·⌈bits/15⌉) in its T triples rather than
// O(T log T); a compaction's short batch stays on pdqsort.
package tagstore

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"unsafe"
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

// Grow grows the builder's capacity, if necessary, to guarantee space
// for another n triples: after Grow(n), at least n triples can be added
// without another allocation. If n is negative, Grow panics.
func (b *Builder) Grow(n int) {
	b.triples = slices.Grow(b.triples, n)
}

// Build validates and freezes the store: the accumulated triples are
// merged into an empty store, the same way compaction folds a batch of
// writes into a live one. The merge sorts the builder's own triples in
// place and sums their duplicates, so afterwards the builder holds the
// same relation, in (tag, user, item) order, and may be added to and
// built again; a Build that fails leaves it empty.
func (b *Builder) Build() (*Store, error) {
	s, err := new(Store).merge(b.triples, b.numUsers, b.numItems, b.numTags)
	if err != nil {
		b.triples = nil
		return nil, err
	}
	// From an empty store every summed triple is one of s's.
	b.triples = b.triples[:s.numTriples]
	return s, nil
}

// blockPosts is how many postings Build packs into one block of a
// tag's per-user lists: 512, 4 KB. Only merge reads it; it is a
// variable so that tests can cut stores into blocks of a few postings.
var blockPosts = 512

// globalPosts is how many postings a block of a tag's global list holds
// at most: 128, 1 KB. Only merge reads it; it is a variable for the
// same tests.
var globalPosts = 128

// The item index is cut into blocks of itemBlockItems items, and the
// per-tag entries into pages of tagPageTags tags.
const (
	itemBlockShift = 6
	itemBlockItems = 1 << itemBlockShift
	tagPageShift   = 6
	tagPageTags    = 1 << tagPageShift
)

// Store is the immutable tagging store.
type Store struct {
	numUsers, numItems, numTags int
	numTriples                  int // distinct (user, item, tag) triples

	// What the store holds per tag, in pages of tagPageTags tags: tag
	// t's entry is tagPages[t>>tagPageShift][t&(tagPageTags-1)] (tag).
	tagPages [][]tagEntry // len ⌈numTags/tagPageTags⌉

	// The per-item tag index behind gtf(i, t), in blocks of
	// itemBlockItems items: item i lies in items[i>>itemBlockShift].
	items []itemBlock // len ⌈numItems/itemBlockItems⌉

	totalAnnotations int64

	// The per-user tag CSR UserTags reads, built by its first call: user
	// u's distinct tags are userTags[userStart[u]:userStart[u+1]]. No
	// query and no merge reads it, so a served store never holds one.
	userOnce  sync.Once
	userStart []int32 // len numUsers+1
	userTags  []TagID
}

// tagEntry is what a store holds for one tag.
type tagEntry struct {
	// The per-(user, tag) posting lists in blocks, nil for a tag nobody
	// used: the one place the (user, item, tag, count) tuples are
	// stored, so whatever a query reads of them lies in its own tags'
	// blocks.
	blocks []Block
	// firsts[k] is the first user of blocks[k]: what UserList searches.
	firsts []int32
	// The global posting list, sorted by (TF desc, Item asc), in blocks
	// of at most globalPosts postings, none empty; glen postings in all.
	global [][]Posting
	glen   int32
	// The largest global TF of any item under the tag (0 if none).
	maxTF int32
}

// noTags is the page of tags nobody used, which every store shares.
var noTags = make([]tagEntry, tagPageTags)

// tag returns tag t's entry.
func (s *Store) tag(t TagID) *tagEntry {
	return &s.tagPages[t>>tagPageShift][t&(tagPageTags-1)]
}

// entry returns tag t's entry in n for writing. n starts out sharing
// every page with s, the store it is merged from, or with every store
// (noTags); the first write to such a page copies it.
func (n *Store) entry(s *Store, t TagID) *tagEntry {
	p := t >> tagPageShift
	if page := n.tagPages[p]; &page[0] == &noTags[0] || int(p) < len(s.tagPages) && &page[0] == &s.tagPages[p][0] {
		n.tagPages[p] = slices.Clone(page)
	}
	return &n.tagPages[p][t&(tagPageTags-1)]
}

// Block holds the per-user posting lists of consecutive users of one
// tag: users, in ascending order, and the p-th user's list, sorted by
// (TF desc, Item asc), is post[end[p-1]:end[p]] (from 0 for p = 0). A
// block holds at least one list, and at most blockPosts postings unless
// it holds exactly one.
type Block struct {
	users []int32
	end   []int32 // len(users)
	post  []UserPosting
}

// Lists returns the block's users in ascending order, the end of each
// one's list in post, and the postings. The slices alias internal
// storage.
func (b *Block) Lists() (users, end []int32, post []UserPosting) {
	return b.users, b.end, b.post
}

// list returns the p-th user's list.
func (b *Block) list(p int) []UserPosting {
	lo := int32(0)
	if p > 0 {
		lo = b.end[p-1]
	}
	return b.post[lo:b.end[p]]
}

// owner returns the block that holds user u's list, if u has one,
// given the first user of every block: the last block whose first user
// is at most u, or the first block.
func owner(firsts []int32, u int32) int {
	lo, hi := 1, len(firsts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if firsts[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// itemBlock is the tag index of itemBlockItems consecutive items: the
// j-th item's tags, ascending, are tags[start[j]:start[j+1]], with their
// global frequencies in tf. An item past the universe owns nothing.
type itemBlock struct {
	start []int32 // len itemBlockItems+1
	tags  []TagID
	tf    []int32
}

// noItems is the block of items nobody tagged, which every store
// shares.
var noItems = itemBlock{start: make([]int32, itemBlockItems+1)}

// Merge returns a store holding s's triples plus delta (duplicates
// summed) over a universe that may have grown. s is left untouched and
// stays valid for readers still holding it: the new store copies what
// changed and shares the rest — every block of per-user lists, of
// global lists and of the item index that delta does not touch — which
// is safe because neither store is written again. The cost is sorting
// a copy of delta, rewriting the blocks it touches, and the tables: the
// two block tables of each tag it mentions and the store's per-tag and
// per-item-block headers. Nothing is hashed and no block delta leaves
// alone is moved. With nothing to fold in, Merge returns s itself.
func (s *Store) Merge(delta []Triple, numUsers, numItems, numTags int) (*Store, error) {
	if len(delta) == 0 && numUsers == s.numUsers && numItems == s.numItems && numTags == s.numTags {
		return s, nil
	}
	return s.merge(slices.Clone(delta), numUsers, numItems, numTags)
}

// merge folds delta into s, sorting and summing delta in place. Its
// sorts — the triples by (tag, user, item), their (item, tag)
// aggregates, and those by (tag, tf desc, item) for the global lists —
// are radixSort's, over keys packed from the universe widths: linear in
// the triples for a Build, pdqsort for a compaction's short batch.
// Triples already in canonical (user, tag, item) order, a snapshot
// load's, take one stable pass by tag instead of the first sort.
func (s *Store) merge(d []Triple, numUsers, numItems, numTags int) (*Store, error) {
	if numUsers < s.numUsers || numItems < s.numItems || numTags < s.numTags {
		return nil, fmt.Errorf("tagstore: universe (%d users, %d items, %d tags) smaller than the store's (%d, %d, %d)",
			numUsers, numItems, numTags, s.numUsers, s.numItems, s.numTags)
	}
	for _, tr := range d {
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
	if s.numTriples+len(d) > math.MaxInt32 {
		return nil, fmt.Errorf("tagstore: %d triples, a store indexes at most %d", s.numTriples+len(d), math.MaxInt32)
	}

	ib, tb, ub := idBits(numItems), idBits(numTags), idBits(numUsers)
	if len(d) >= radixMin && slices.IsSortedFunc(d, byUserTagItem) {
		radixPasses(d, nil, tb, func(tr Triple) uint64 { return uint64(tr.Tag) })
	} else {
		radixSort(d, nil, tb+ub+ib, func(tr Triple) uint64 {
			return uint64(tr.Tag)<<(ub+ib) | uint64(tr.User)<<ib | uint64(tr.Item)
		}, byTagUserItem)
	}
	d, err := coalesce(d, byTagUserItem, func(tr *Triple) *int32 { return &tr.Count })
	if err != nil {
		return nil, err
	}
	n := &Store{numUsers: numUsers, numItems: numItems, numTags: numTags, numTriples: s.numTriples, totalAnnotations: s.totalAnnotations}
	agg := make([]tagItem, len(d))
	for k, tr := range d {
		agg[k] = tagItem{item: tr.Item, tag: tr.Tag, tf: tr.Count}
		n.totalAnnotations += int64(tr.Count)
	}
	scratch := radixSort(agg, nil, ib+tb, func(e tagItem) uint64 {
		return uint64(e.item)<<tb | uint64(e.tag)
	}, byItemTag)
	if agg, err = coalesce(agg, byItemTag, func(e *tagItem) *int32 { return &e.tf }); err != nil {
		return nil, err
	}
	if err := n.mergeTagLists(s, d); err != nil {
		return nil, err
	}
	if err := n.mergeItems(s, agg); err != nil {
		return nil, err
	}
	n.mergeGlobal(s, agg, scratch)
	return n, nil
}

// tagItem is what a delta adds to one (tag, item) pair: tf holds the
// added frequency until mergeItems turns it into the new global one.
type tagItem struct {
	item ItemID
	tag  TagID
	tf   int32
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

func byTagUserItem(a, b Triple) int {
	if a.Tag != b.Tag {
		return cmp.Compare(a.Tag, b.Tag)
	}
	if a.User != b.User {
		return cmp.Compare(a.User, b.User)
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

// mergeTagLists fills the tag-major posting lists, the relation itself,
// from s's plus d, sorted by (tag, user, item). A tag d does not
// mention keeps its block table in s. For one it does, d's triples
// under it go, a user's at a time, to the blocks that own their users
// (owner); every block none lands in is shared, and every one some do
// is rewritten — s's are never written.
func (n *Store) mergeTagLists(s *Store, d []Triple) error {
	n.tagPages = make([][]tagEntry, (n.numTags+tagPageTags-1)>>tagPageShift)
	for p := copy(n.tagPages, s.tagPages); p < len(n.tagPages); p++ {
		n.tagPages[p] = noTags
	}
	m := tagMerge{n: n}
	for a, b := 0, 0; a < len(d); a = b {
		t := d[a].Tag
		for b < len(d) && d[b].Tag == t {
			b++
		}
		blocks, err := m.merge(n.tag(t).blocks, d[a:b])
		if err != nil {
			return err
		}
		e := n.entry(s, t)
		e.blocks, e.firsts = blocks, make([]int32, len(blocks))
		for k, b := range blocks {
			e.firsts[k] = b.users[0]
		}
	}
	return nil
}

// tagMerge rewrites the touched blocks of one tag after another. The
// lists of a tag's rewritten blocks are written back to back into
// users, end and post, arrays of their own, with end[p] the end of the
// p-th list in post; block then cuts them into blocks.
type tagMerge struct {
	n     *Store
	users []int32
	end   []int32
	post  []UserPosting
	next  int32         // start in post of the first list no block holds yet
	out   []Block       // scratch: the table being built
	spans [][3]int      // scratch: the touched blocks, as (block, first triple, end triple)
	items []UserPosting // scratch: a touched pair's old list in item order
}

// noBlocks is the table a tag nobody used starts from: one empty block.
var noBlocks [1]Block

// merge returns the block table of a tag whose old one is old after its
// triples trs, sorted by (user, item), are folded in. A tag nobody used
// before starts from a single empty block, and its lists are packed
// greedily; a rewritten old block splits in halves while it is too
// large.
func (m *tagMerge) merge(old []Block, trs []Triple) ([]Block, error) {
	fresh := len(old) == 0
	if fresh {
		old = noBlocks[:]
	}
	m.spans = m.spans[:0]
	nu, np := 0, len(trs)
	for k, tr := range trs {
		if k == 0 || tr.User != trs[k-1].User {
			nu++
		}
	}
	for r, k := 0, 0; r < len(trs); k++ {
		e := len(trs)
		if k+1 < len(old) {
			first := old[k+1].users[0]
			e = r + sort.Search(len(trs)-r, func(i int) bool { return trs[r+i].User >= first })
		}
		if e > r {
			m.spans = append(m.spans, [3]int{k, r, e})
			nu += len(old[k].users)
			np += len(old[k].post)
		}
		r = e
	}
	m.users, m.end, m.post, m.next = make([]int32, 0, nu), make([]int32, 0, nu), make([]UserPosting, 0, np), 0
	m.out = m.out[:0]
	k := 0
	for _, sp := range m.spans {
		m.out = append(m.out, old[k:sp[0]]...)
		k = sp[0] + 1
		from := len(m.users)
		if err := m.rewrite(&old[k-1], trs[sp[1]:sp[2]]); err != nil {
			return nil, err
		}
		if fresh {
			m.greedy(from, len(m.users))
		} else {
			m.halves(from, len(m.users))
		}
	}
	m.out = append(m.out, old[k:]...)
	return slices.Clone(m.out), nil
}

// rewrite writes block b's lists with trs, sorted by (user, item),
// folded in: a list no triple touches is carried over, a touched one is
// its old list, if the user had one, plus the user's triples, summed by
// item and sorted.
func (m *tagMerge) rewrite(b *Block, trs []Triple) error {
	p := 0 // b's first list not written yet
	for a, c := 0, 0; a < len(trs); a = c {
		u := trs[a].User
		for c < len(trs) && trs[c].User == u {
			c++
		}
		q, found := slices.BinarySearch(b.users[p:], u)
		m.carry(b, p, p+q)
		p += q
		var old []UserPosting
		if found {
			m.items = append(m.items[:0], b.list(p)...)
			slices.SortFunc(m.items, func(a, b UserPosting) int { return cmp.Compare(a.Item, b.Item) })
			old = m.items
			p++
		}
		if err := m.fold(trs[a:c], old); err != nil {
			return err
		}
	}
	m.carry(b, p, len(b.users))
	return nil
}

// carry copies lists [p, q) of block b.
func (m *tagMerge) carry(b *Block, p, q int) {
	if p == q {
		return
	}
	lo := int32(0)
	if p > 0 {
		lo = b.end[p-1]
	}
	shift := int32(len(m.post)) - lo
	m.users = append(m.users, b.users[p:q]...)
	for _, e := range b.end[p:q] {
		m.end = append(m.end, e+shift)
	}
	m.post = append(m.post, b.post[lo:b.end[q-1]]...)
}

// fold writes the list of one user under the tag: old, the user's list
// before in item order, plus run, the user's triples in item order,
// summed by item and sorted.
func (m *tagMerge) fold(run []Triple, old []UserPosting) error {
	from := len(m.post)
	m.n.numTriples -= len(old)
	for _, tr := range run {
		for len(old) > 0 && old[0].Item < tr.Item {
			m.post, old = append(m.post, old[0]), old[1:]
		}
		if len(old) > 0 && old[0].Item == tr.Item {
			sum, err := addTF(old[0].TF, tr.Count)
			if err != nil {
				return err
			}
			tr.Count, old = sum, old[1:]
		}
		m.post = append(m.post, UserPosting{Item: tr.Item, TF: tr.Count})
	}
	m.post = append(m.post, old...)
	list := m.post[from:]
	m.n.numTriples += len(list)
	if len(list) > 1 { // most lists hold one posting
		slices.SortFunc(list, func(a, b UserPosting) int { return byTFDesc(Posting(a), Posting(b)) })
	}
	m.users = append(m.users, run[0].User)
	m.end = append(m.end, int32(len(m.post)))
	return nil
}

// greedy cuts lists [p, q) into blocks as Build does: each block takes
// lists while they fit in blockPosts postings, and a longer list is a
// block of its own.
func (m *tagMerge) greedy(p, q int) {
	for x := p + 1; x < q; x++ {
		if m.end[x]-m.next > int32(blockPosts) {
			m.block(p, x)
			p = x
		}
	}
	m.block(p, q)
}

// halves cuts lists [p, q), a rewritten block, into blocks: while a
// part holds more than blockPosts postings and more than one list, it
// splits at the list boundary nearest its middle, so each half has room
// to grow again.
func (m *tagMerge) halves(p, q int) {
	size := m.end[q-1] - m.next
	if q-p == 1 || size <= int32(blockPosts) {
		m.block(p, q)
		return
	}
	mid := m.next + size/2
	// The boundary after list x lies at end[x], for x in [p, q-1).
	x := p + sort.Search(q-1-p, func(i int) bool { return m.end[p+i] >= mid })
	if x == q-1 || x > p && mid-m.end[x-1] <= m.end[x]-mid {
		x--
	}
	m.halves(p, x+1)
	m.halves(x+1, q)
}

// block appends lists [p, q) to the table as one block; the blocks of a
// tag are made in list order, so the block starts at next.
func (m *tagMerge) block(p, q int) {
	base, top := m.next, m.end[q-1]
	for x := p; x < q; x++ {
		m.end[x] -= base
	}
	m.next = top
	m.out = append(m.out, Block{users: m.users[p:q], end: m.end[p:q], post: m.post[base:top]})
}

// mergeItems writes the item index: the blocks agg (sorted by item,
// tag) touches are s's with agg's entries folded in, every other block
// is s's or, past s's universe, noItems. It also turns every agg entry
// from "frequency added" into "global frequency after".
func (n *Store) mergeItems(s *Store, agg []tagItem) error {
	n.items = make([]itemBlock, (n.numItems+itemBlockItems-1)>>itemBlockShift)
	for k := copy(n.items, s.items); k < len(n.items); k++ {
		n.items[k] = noItems
	}
	touched, size := 0, len(agg)
	for k := range agg {
		if b := agg[k].item >> itemBlockShift; k == 0 || b != agg[k-1].item>>itemBlockShift {
			touched++
			size += len(n.items[b].tags)
		}
	}
	tags, tf := make([]TagID, 0, size), make([]int32, 0, size)
	starts := make([]int32, touched*(itemBlockItems+1))
	for a, c := 0, 0; a < len(agg); a = c {
		b := agg[a].item >> itemBlockShift
		for c < len(agg) && agg[c].item>>itemBlockShift == b {
			c++
		}
		old, lo := &n.items[b], len(tags)
		start := starts[:itemBlockItems+1]
		starts = starts[itemBlockItems+1:]
		next := int32(0) // first entry of old not carried over yet
		carry := func(upTo int32) {
			tags = append(tags, old.tags[next:upTo]...)
			tf = append(tf, old.tf[next:upTo]...)
			next = upTo
		}
		// start[j+1] counts the entries inserted for item j until the
		// prefix sum below turns it into item j+1's shift.
		for k := range agg[a:c] {
			e := &agg[a+k]
			j := e.item & (itemBlockItems - 1)
			p, found := seek(old.start, old.tags, j, e.tag)
			carry(p)
			var was int32
			if found {
				was = old.tf[p]
				next = p + 1
			} else {
				start[j+1]++
			}
			var err error
			if e.tf, err = addTF(was, e.tf); err != nil {
				return err
			}
			tags = append(tags, e.tag)
			tf = append(tf, e.tf)
		}
		carry(int32(len(old.tags)))
		shift := int32(0)
		for j := range start {
			shift += start[j]
			start[j] = old.start[j] + shift
		}
		n.items[b] = itemBlock{start: start, tags: tags[lo:], tf: tf[lo:]}
	}
	return nil
}

// oldTF is s's global frequency of tag t on item i, for an item that
// may lie beyond s's universe, and whether s had the pair.
func (s *Store) oldTF(i ItemID, t TagID) (int32, bool) {
	if int(i) >= s.numItems {
		return 0, false
	}
	b := &s.items[i>>itemBlockShift]
	p, found := seek(b.start, b.tags, i&(itemBlockItems-1), t)
	if !found {
		return 0, false
	}
	return b.tf[p], true
}

// mergeGlobal shares s's global list of every tag agg does not mention
// and rewrites the others at block grain (globalMerge). agg is sorted
// by (tag, tf desc, item) on scratch, the (item, tag) sort's: the key
// stores tf complemented within the width of the largest.
func (n *Store) mergeGlobal(s *Store, agg, scratch []tagItem) {
	var top int32
	for _, e := range agg {
		top = max(top, e.tf)
	}
	ib, fb := idBits(n.numItems), bits.Len32(uint32(top))
	low := uint64(1)<<fb - 1
	radixSort(agg, scratch, idBits(n.numTags)+fb+ib, func(e tagItem) uint64 {
		return uint64(e.tag)<<(fb+ib) | (low-uint64(e.tf))<<ib | uint64(e.item)
	}, func(a, b tagItem) int {
		if a.tag != b.tag {
			return cmp.Compare(a.tag, b.tag)
		}
		return byTFDesc(a.posting(), b.posting())
	})
	var m globalMerge
	if s.numTriples > 0 { // a Build's tags are all new and need no scratch
		m = globalMerge{gone: make([][2]int, 0, len(agg)), lands: make([]int, 0, len(agg)), touched: make([]int, 0, 2*len(agg))}
	}
	for a := 0; a < len(agg); {
		t := agg[a].tag
		b := a + 1
		for b < len(agg) && agg[b].tag == t {
			b++
		}
		e := n.entry(s, t)
		e.global, e.glen = m.merge(s, t, e.global, e.glen, agg[a:b])
		e.maxTF = e.global[0][0].TF
		a = b
	}
}

// globalMerge rewrites the touched blocks of one tag's global list
// after another.
type globalMerge struct {
	gone    [][2]int    // scratch: where the re-ranked postings sat, as (block, offset)
	lands   []int       // scratch: the block each new posting lands in
	touched []int       // scratch: the blocks either names, ascending
	out     [][]Posting // scratch: the table being built
}

// merge returns the block table of a tag whose old table is old, of n
// postings, once the postings add — sorted by (tf desc, item), each
// with its frequency after — are in, and the list's new length. A tag
// nobody used before, every tag of a Build, lays its list out in one
// array cut into full blocks. Otherwise each posting whose frequency
// changed leaves the block its old one lies in, found by the frequency
// s's item index gives it, and lands in the block that owns its new
// rank: only those blocks are rewritten, into one array, halved while
// they hold more than globalPosts postings and dropped when empty.
func (m *globalMerge) merge(s *Store, t TagID, old [][]Posting, n int32, add []tagItem) ([][]Posting, int32) {
	m.out = m.out[:0]
	if len(old) == 0 {
		lst := make([]Posting, len(add))
		for k, e := range add {
			lst[k] = e.posting()
		}
		for len(lst) > 0 {
			k := min(len(lst), globalPosts)
			m.out, lst = append(m.out, lst[:k:k]), lst[k:]
		}
		return slices.Clone(m.out), int32(len(add))
	}
	m.gone, m.lands, m.touched = m.gone[:0], m.lands[:0], m.touched[:0]
	for _, e := range add {
		if was, found := s.oldTF(e.item, t); found {
			p := Posting{Item: e.item, TF: was}
			k := globalOwner(old, p)
			q, _ := slices.BinarySearchFunc(old[k], p, byTFDesc)
			m.gone = append(m.gone, [2]int{k, q})
			m.touched = append(m.touched, k)
		}
		k := globalOwner(old, e.posting())
		m.lands = append(m.lands, k)
		m.touched = append(m.touched, k)
	}
	slices.SortFunc(m.gone, func(a, b [2]int) int { return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1])) })
	slices.Sort(m.touched)
	m.touched = slices.Compact(m.touched)
	size := len(add) - len(m.gone)
	for _, k := range m.touched {
		size += len(old[k])
	}
	post := make([]Posting, 0, size)
	next, g, j := 0, 0, 0 // the first old block not in the table yet, and the cursors into gone and add
	for _, k := range m.touched {
		m.out = append(m.out, old[next:k]...)
		next = k + 1
		from, blk := len(post), old[k]
		for i := 0; i < len(blk) || j < len(add) && m.lands[j] == k; {
			switch {
			case g < len(m.gone) && m.gone[g] == [2]int{k, i}:
				i, g = i+1, g+1
			case j == len(add) || m.lands[j] != k || i < len(blk) && byTFDesc(blk[i], add[j].posting()) < 0:
				post = append(post, blk[i])
				i++
			default:
				post = append(post, add[j].posting())
				j++
			}
		}
		m.halves(post[from:])
	}
	m.out = append(m.out, old[next:]...)
	return slices.Clone(m.out), n - int32(len(m.gone)) + int32(len(add))
}

// halves appends a rewritten block to the table: while a part holds
// more than globalPosts postings it splits in halves, so each has room
// to grow again, and a block left empty is dropped.
func (m *globalMerge) halves(p []Posting) {
	if len(p) > globalPosts {
		m.halves(p[:len(p)/2])
		m.halves(p[len(p)/2:])
	} else if len(p) > 0 {
		m.out = append(m.out, p[:len(p):len(p)])
	}
}

// globalOwner returns the block of a global list that owns posting p —
// holds it, or would hold it at its rank: the last block whose first
// posting is at most p, or the first block.
func globalOwner(blocks [][]Posting, p Posting) int {
	return sort.Search(len(blocks)-1, func(k int) bool { return byTFDesc(blocks[k+1][0], p) > 0 })
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
	for t := range TagID(s.numTags) {
		for _, b := range s.tag(t).blocks {
			for _, u := range b.users {
				start[u+1]++
			}
		}
	}
	for u := range s.numUsers {
		start[u+1] += start[u]
	}
	tags = make([]TagID, start[s.numUsers])
	// start[u] is u's fill cursor, and ends at u's end — u+1's start —
	// so the array shifts back by one owner afterwards.
	for t := range TagID(s.numTags) {
		for _, b := range s.tag(t).blocks {
			for _, u := range b.users {
				tags[start[u]] = t
				start[u]++
			}
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
	type cursor struct{ block, p int32 }
	seen := make([]cursor, s.numTags) // the next list of each tag to write
	for u := int32(0); int(u) < s.numUsers; u++ {
		for _, t := range tags[start[u]:start[u+1]] {
			c := &seen[t]
			b, from := &s.tag(t).blocks[c.block], len(trs)
			for _, up := range b.list(int(c.p)) {
				trs = append(trs, Triple{User: u, Item: up.Item, Tag: t, Count: up.TF})
			}
			if c.p++; int(c.p) == len(b.users) {
				c.block, c.p = c.block+1, 0
			}
			slices.SortFunc(trs[from:], byUserTagItem)
		}
	}
	return trs
}

// GlobalBlocks returns the global posting list of tag t, sorted by
// descending total frequency, as blocks — read one after another they
// are the list, and none is empty — and the list's length. A reader
// walks it with a (block, offset) cursor. The slices alias internal
// storage.
func (s *Store) GlobalBlocks(t TagID) (blocks [][]Posting, n int) {
	e := s.tag(t)
	return e.global, int(e.glen)
}

// MaxTF returns the largest global frequency under tag t; it is the
// per-list score ceiling threshold algorithms use.
func (s *Store) MaxTF(t TagID) int32 { return s.tag(t).maxTF }

// UserList returns the posting list of (user u, tag t), sorted by
// descending frequency, or nil when u never used t. The lookup is two
// binary searches: over the first users of the tag's blocks, an array
// of its own, then over the users of the one block that would hold u's
// list.
func (s *Store) UserList(u int32, t TagID) []UserPosting {
	e := s.tag(t)
	if len(e.blocks) == 0 {
		return nil
	}
	b := &e.blocks[owner(e.firsts, u)]
	if p, ok := slices.BinarySearch(b.users, u); ok {
		return b.list(p)
	}
	return nil
}

// TagBlocks returns every posting list under tag t, as blocks of
// consecutive users in ascending order: the lists UserList returns, each
// in exactly one block. The slice aliases internal storage.
func (s *Store) TagBlocks(t TagID) []Block { return s.tag(t).blocks }

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
// a shift finds item i's block, and a binary search its sorted tags.
func (s *Store) GlobalTF(i ItemID, t TagID) int32 {
	b := &s.items[i>>itemBlockShift]
	if j, ok := seek(b.start, b.tags, i&(itemBlockItems-1), t); ok {
		return b.tf[j]
	}
	return 0
}

// Footprint is a store's memory by structure, in bytes of array
// elements: lengths, not capacities.
type Footprint struct {
	TagBlocks  int64 // the per-user lists: users, list ends, postings
	ItemBlocks int64 // the item index behind GlobalTF
	Global     int64 // the global posting lists: their blocks and block tables
	Headers    int64 // the tables: per-tag headers, the per-user lists' block tables, maxTF
}

// OwnBytes reports the memory of s that it does not share with parent —
// after s = parent.Merge(...), what the merge allocated and s keeps. A
// nil parent shares nothing. Every store shares the item block of
// untagged items, so it counts for none.
func (s *Store) OwnBytes(parent *Store) Footprint {
	var f Footprint
	if s == parent {
		return f
	}
	if parent == nil {
		parent = new(Store)
	}
	f.Headers = int64(len(s.tagPages))*int64(unsafe.Sizeof([]tagEntry(nil))) +
		int64(len(s.items))*int64(unsafe.Sizeof(itemBlock{}))
	for p, page := range s.tagPages {
		if &page[0] == &noTags[0] || p < len(parent.tagPages) && &page[0] == &parent.tagPages[p][0] {
			continue
		}
		f.Headers += int64(len(page)) * int64(unsafe.Sizeof(tagEntry{}))
		for k := range page {
			var was tagEntry
			if p < len(parent.tagPages) {
				was = parent.tagPages[p][k]
			}
			f.add(&page[k], &was)
		}
	}
	for k, b := range s.items {
		if &b.start[0] == &noItems.start[0] || k < len(parent.items) && &b.start[0] == &parent.items[k].start[0] {
			continue
		}
		f.ItemBlocks += 4 * int64(len(b.start)+len(b.tags)+len(b.tf))
	}
	return f
}

// add adds what entry e, its tag's in the store OwnBytes measures, does
// not share with was, the tag's in the parent.
func (f *Footprint) add(e, was *tagEntry) {
	if len(e.global) > 0 && (len(was.global) == 0 || &e.global[0] != &was.global[0]) {
		f.Global += int64(len(e.global)) * int64(unsafe.Sizeof([]Posting(nil)))
		had := make(map[*Posting]bool, len(was.global))
		for _, b := range was.global {
			had[&b[0]] = true
		}
		for _, b := range e.global {
			if !had[&b[0]] {
				f.Global += 8 * int64(len(b))
			}
		}
	}
	if len(e.blocks) == 0 || len(was.blocks) > 0 && &e.blocks[0] == &was.blocks[0] {
		return
	}
	f.Headers += int64(len(e.blocks))*int64(unsafe.Sizeof(Block{})) + 4*int64(len(e.firsts))
	had := make(map[*int32]bool, len(was.blocks))
	for _, b := range was.blocks {
		had[&b.users[0]] = true
	}
	for _, b := range e.blocks {
		if !had[&b.users[0]] {
			f.TagBlocks += 4*int64(len(b.users)+len(b.end)) + 8*int64(len(b.post))
		}
	}
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
		b := &s.items[i>>itemBlockShift]
		if j := i & (itemBlockItems - 1); b.start[j] < b.start[j+1] {
			st.DistinctItemsTagged++
		}
	}
	for t := range TagID(s.numTags) {
		if n := int(s.tag(t).glen); n > 0 {
			st.DistinctTagsUsed++
			st.MaxGlobalListLen = max(st.MaxGlobalListLen, n)
		}
	}
	return st
}

package tagstore

// ItemIndex writes the per-item tag index behind GlobalTF out as one
// CSR over the item universe — item i's tags are
// tags[start[i]:start[i+1]] — the layout it had before it was cut into
// blocks, for the external tests, which cannot reach unexported fields.
func (s *Store) ItemIndex() (start []int32, tags []TagID, tf []int32) {
	start = make([]int32, s.numItems+1)
	for i := range s.numItems {
		b := &s.items[i>>itemBlockShift]
		j := i & (itemBlockItems - 1)
		tags = append(tags, b.tags[b.start[j]:b.start[j+1]]...)
		tf = append(tf, b.tf[b.start[j]:b.start[j+1]]...)
		start[i+1] = int32(len(tags))
	}
	return start, tags, tf
}

// TagLists writes tag t's blocks out as one array each — the p-th user's
// list is post[off[p]:off[p+1]] — the layout they had before they were
// cut into blocks; all three are nil for a tag nobody used.
func (s *Store) TagLists(t TagID) (users, off []int32, post []UserPosting) {
	for _, b := range s.tag(t).blocks {
		for p, u := range b.users {
			if off == nil {
				off = []int32{0}
			}
			users = append(users, u)
			post = append(post, b.list(p)...)
			off = append(off, int32(len(post)))
		}
	}
	return users, off, post
}

// globalList writes tag t's global blocks out as one list, the layout
// it had before it was cut into blocks; nil for a tag nobody used.
func (s *Store) globalList(t TagID) []Posting {
	var lst []Posting
	for _, b := range s.tag(t).global {
		lst = append(lst, b...)
	}
	return lst
}

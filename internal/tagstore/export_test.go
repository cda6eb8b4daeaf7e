package tagstore

// ItemIndex exposes the per-item tag CSR behind GlobalTF to the
// external tests, which cannot reach unexported fields.
func (s *Store) ItemIndex() (start []int32, tags []TagID, tf []int32) {
	return s.itStart, s.itTags, s.itTF
}

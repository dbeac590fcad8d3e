package index

// Rows is the vector index's content, row by row, for the external tests
// that hold a loaded store to the saved one's codes.
func Rows(s *Store) (codes [][]int16, muls []float64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, r := range s.vec.rows {
		codes = append(codes, r.codes)
		muls = append(muls, r.mul)
	}
	return codes, muls
}

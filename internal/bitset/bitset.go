// Package bitset implements a fixed-capacity bit set used by the exact
// scheduler to represent order ideals (downward-closed node sets) compactly
// and hashably.
package bitset

// Set is a bit set over [0, n) backed by 64-bit words.
type Set struct {
	words []uint64
}

// New returns an empty set with capacity n.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+63)/64)}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Has reports whether bit i is set.
func (s *Set) Has(i int) bool {
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Reset clears all bits.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// AppendKey appends a compact binary encoding of the set contents to dst
// and returns the extended slice. It allocates nothing when dst has
// capacity, so map probes of the form m[string(buf)] stay on the
// compiler's no-copy fast path — the exact solver's memoization lookups
// run through this.
func (s *Set) AppendKey(dst []byte) []byte {
	for _, w := range s.words {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

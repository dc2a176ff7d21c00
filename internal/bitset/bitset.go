// Package bitset provides a dense bit set used throughout the library to
// represent sets of automaton states. State identifiers are small
// non-negative integers, so a packed []uint64 representation gives O(m/64)
// unions and intersections, which the FPRAS inner loops depend on.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity dense bit set over the universe {0, ..., n-1}.
// The zero value is an empty set of capacity zero; use New for a sized set.
// Sets are not synchronized: concurrent readers are safe only while no
// goroutine mutates the set (the FPRAS shares frozen reach sets this way).
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for elements 0..n-1.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromSlice returns a set of capacity n containing the given elements.
func FromSlice(n int, elems []int) *Set {
	s := New(n)
	for _, e := range elems {
		s.Add(e)
	}
	return s
}

// Add inserts i into the set. It panics if i is out of range, since that is
// always a programming error in this library.
func (s *Set) Add(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: Add out of range: " + strconv.Itoa(i) + " cap " + strconv.Itoa(s.n))
	}
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set if present.
func (s *Set) Remove(i int) {
	if i < 0 || i >= s.n {
		return
	}
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Has reports whether i is in the set.
func (s *Set) Has(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements in the set.
func (s *Set) Len() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	t := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(t.words, s.words)
	return t
}

// CopyFrom overwrites s with the contents of t. Both must have the same
// capacity.
func (s *Set) CopyFrom(t *Set) {
	if s.n != t.n {
		panic("bitset: CopyFrom capacity mismatch")
	}
	copy(s.words, t.words)
}

// UnionWith adds every element of t to s.
func (s *Set) UnionWith(t *Set) {
	for i, w := range t.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in t.
func (s *Set) IntersectWith(t *Set) {
	for i := range s.words {
		s.words[i] &= t.words[i]
	}
}

// DiffWith removes from s every element of t.
func (s *Set) DiffWith(t *Set) {
	for i := range s.words {
		s.words[i] &^= t.words[i]
	}
}

// Intersects reports whether s and t share at least one element.
func (s *Set) Intersects(t *Set) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Equal reports whether s and t contain exactly the same elements.
func (s *Set) Equal(t *Set) bool {
	if s.n != t.n {
		return false
	}
	for i := range s.words {
		if s.words[i] != t.words[i] {
			return false
		}
	}
	return true
}

// Elems returns the elements of the set in increasing order.
func (s *Set) Elems() []int {
	out := make([]int, 0, s.Len())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// ForEach calls f on every element in increasing order.
func (s *Set) ForEach(f func(int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Min returns the smallest element, or -1 if the set is empty.
func (s *Set) Min() int {
	for wi, w := range s.words {
		if w != 0 {
			return wi*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// Key returns a compact string usable as a map key. Two sets of the same
// capacity have equal keys if and only if they are equal.
func (s *Set) Key() string {
	var sb strings.Builder
	sb.Grow(len(s.words) * 8)
	for _, w := range s.words {
		var buf [8]byte
		for i := 0; i < 8; i++ {
			buf[i] = byte(w >> (8 * uint(i)))
		}
		sb.Write(buf[:])
	}
	return sb.String()
}

// String renders the set like {0 3 17} for debugging.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			sb.WriteByte(' ')
		}
		first = false
		sb.WriteString(strconv.Itoa(i))
	})
	sb.WriteByte('}')
	return sb.String()
}

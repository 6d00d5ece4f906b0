// Package bitset provides a fixed-size bitmap with the run-oriented
// queries needed by FFS cylinder-group free maps: set/clear/test single
// bits, count bits in a range, and search for runs of set bits.
//
// By convention throughout this repository a set bit means "free", to
// match the sense of the FFS cg_blksfree map.
package bitset

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Set is a fixed-length bitmap. The zero value is unusable; construct
// with New. Bit indices run from 0 to Len()-1.
type Set struct {
	n     int
	words []uint64
}

// New returns a Set of n bits, all clear.
func New(n int) *Set {
	if n < 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: negative size %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the number of bits in the set.
func (s *Set) Len() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Set sets bit i.
func (s *Set) Set(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (s *Set) Clear(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// rangeMask returns a word mask covering bits [off, off+n) of a single
// word. Callers guarantee 0 ≤ off, 0 < n, off+n ≤ 64.
func rangeMask(off, n int) uint64 {
	if n >= wordBits {
		return ^uint64(0)
	}
	return (uint64(1)<<uint(n) - 1) << uint(off)
}

// SetRange sets bits [lo, hi), word-wise.
func (s *Set) SetRange(lo, hi int) {
	if lo < 0 || hi > s.n || lo > hi {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: bad range [%d,%d) of %d", lo, hi, s.n))
	}
	for lo < hi {
		w := lo / wordBits
		end := (w + 1) * wordBits
		if end > hi {
			end = hi
		}
		s.words[w] |= rangeMask(lo%wordBits, end-lo)
		lo = end
	}
}

// ClearRange clears bits [lo, hi), word-wise.
func (s *Set) ClearRange(lo, hi int) {
	if lo < 0 || hi > s.n || lo > hi {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: bad range [%d,%d) of %d", lo, hi, s.n))
	}
	for lo < hi {
		w := lo / wordBits
		end := (w + 1) * wordBits
		if end > hi {
			end = hi
		}
		s.words[w] &^= rangeMask(lo%wordBits, end-lo)
		lo = end
	}
}

// TestRange reports whether every bit in [lo, hi) is set. An empty range
// is vacuously true.
func (s *Set) TestRange(lo, hi int) bool {
	if lo < 0 || hi > s.n || lo > hi {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: bad range [%d,%d) of %d", lo, hi, s.n))
	}
	for lo < hi {
		w := lo / wordBits
		end := (w + 1) * wordBits
		if end > hi {
			end = hi
		}
		m := rangeMask(lo%wordBits, end-lo)
		if s.words[w]&m != m {
			return false
		}
		lo = end
	}
	return true
}

// Mask8 returns bits [start, start+width) packed into the low bits of a
// byte: bit i of the result reports bit start+i of the set. width must
// be at most 8. FFS free maps align fragment groups on power-of-two
// boundaries, so in practice the extraction never crosses a word, but
// the straddling case is handled for generality.
func (s *Set) Mask8(start, width int) uint8 {
	if start < 0 || width < 0 || width > 8 || start+width > s.n {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: bad mask [%d,%d) of %d", start, start+width, s.n))
	}
	w := start / wordBits
	off := uint(start % wordBits)
	v := s.words[w] >> off
	if int(off)+width > wordBits {
		v |= s.words[w+1] << (wordBits - off)
	}
	return uint8(v) & uint8(uint(1)<<uint(width)-1)
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the number of set bits in [lo, hi), word-wise.
func (s *Set) CountRange(lo, hi int) int {
	if lo < 0 || hi > s.n || lo > hi {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: bad range [%d,%d) of %d", lo, hi, s.n))
	}
	c := 0
	for lo < hi {
		w := lo / wordBits
		end := (w + 1) * wordBits
		if end > hi {
			end = hi
		}
		c += bits.OnesCount64(s.words[w] & rangeMask(lo%wordBits, end-lo))
		lo = end
	}
	return c
}

// NextSet returns the index of the first set bit at or after i, or -1 if
// there is none.
func (s *Set) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i / wordBits
	// Mask off bits below i in the first word.
	cur := s.words[w] & (^uint64(0) << uint(i%wordBits))
	for {
		if cur != 0 {
			idx := w*wordBits + bits.TrailingZeros64(cur)
			if idx >= s.n {
				return -1
			}
			return idx
		}
		w++
		if w >= len(s.words) {
			return -1
		}
		cur = s.words[w]
	}
}

// NextSetAny returns the first index at or after i set in any of sets,
// or -1 if there is none. The sets must all have the same length. Their
// words are ORed together one word index at a time, so finding the
// earliest member of a union costs one pass that stops at the first
// word holding one, not one scan per set.
func NextSetAny(sets []*Set, i int) int {
	if len(sets) == 0 {
		return -1
	}
	if i < 0 {
		i = 0
	}
	if i >= sets[0].n {
		return -1
	}
	w := i / wordBits
	mask := ^uint64(0) << uint(i%wordBits) // bits below i in the first word
	for ; w < len(sets[0].words); w++ {
		var word uint64
		for _, s := range sets {
			word |= s.words[w]
		}
		if word &= mask; word != 0 {
			return w*wordBits + bits.TrailingZeros64(word)
		}
		mask = ^uint64(0)
	}
	return -1
}

// NextClear returns the index of the first clear bit at or after i, or -1
// if there is none.
func (s *Set) NextClear(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	w := i / wordBits
	cur := ^s.words[w] & (^uint64(0) << uint(i%wordBits))
	for {
		if cur != 0 {
			idx := w*wordBits + bits.TrailingZeros64(cur)
			if idx >= s.n {
				return -1
			}
			return idx
		}
		w++
		if w >= len(s.words) {
			return -1
		}
		cur = ^s.words[w]
	}
}

// runLengthFrom returns the length of the run of set bits starting at
// i, truncated at max when max > 0. All-ones words are consumed whole,
// so long runs cost one word operation per 64 bits instead of one test
// per bit. Bits at index ≥ s.n are never set, so the run cannot
// overrun the logical length.
func (s *Set) runLengthFrom(i, max int) int {
	n := 0
	w := i / wordBits
	off := i % wordBits
	for w < len(s.words) {
		word := s.words[w] >> uint(off)
		// The shift fills the top with zeros, so the complement's
		// trailing-zero count — the run of ones from bit 0 — is
		// bounded by the bits available in this word.
		run := bits.TrailingZeros64(^word)
		avail := wordBits - off
		n += run
		if max > 0 && n >= max {
			return max
		}
		if run < avail {
			return n
		}
		w++
		off = 0
	}
	return n
}

// RunLengthAt returns the length of the run of set bits starting exactly
// at i (0 if bit i is clear). The run is truncated at max when max > 0.
func (s *Set) RunLengthAt(i int, max int) int {
	s.check(i)
	if !s.Test(i) {
		return 0
	}
	return s.runLengthFrom(i, max)
}

// RunLengthBefore returns the length of the run of set bits ending just
// below i — bits i-1, i-2, ... — truncated at max when max > 0; it is 0
// when i is 0 or bit i-1 is clear. i may equal Len(). The backward
// mirror of RunLengthAt: all-ones words are consumed whole, counting
// leading ones with LeadingZeros64.
func (s *Set) RunLengthBefore(i, max int) int {
	if i < 0 || i > s.n {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: RunLengthBefore index %d out of range [0,%d]", i, s.n))
	}
	n := 0
	for i > 0 {
		w := (i - 1) / wordBits
		avail := (i-1)%wordBits + 1
		// Shift bit i-1 up to bit 63. The shift fills the bottom with
		// zeros, so the complement's leading-zero count — the run of
		// ones from bit 63 down — is bounded by the bits available.
		run := bits.LeadingZeros64(^(s.words[w] << uint(wordBits-avail)))
		n += run
		if max > 0 && n >= max {
			return max
		}
		if run < avail {
			return n
		}
		i -= avail
	}
	return n
}

// FindRun searches [lo, hi) for the first run of at least length set
// bits and returns its start index, or -1 if none exists. A run may not
// extend past hi. Both the skip to the next set bit and the run count
// proceed word-wise, so scanning a mostly-full free map costs one or
// two word operations per candidate run rather than one test per bit.
func (s *Set) FindRun(lo, hi, length int) int {
	if length <= 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: FindRun length %d", length))
	}
	if lo < 0 || hi > s.n || lo > hi {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("bitset: bad range [%d,%d) of %d", lo, hi, s.n))
	}
	i := lo
	for {
		i = s.NextSet(i)
		if i < 0 || i+length > hi {
			return -1
		}
		run := s.runLengthFrom(i, length)
		if run >= length {
			return i
		}
		i += run
	}
}

// FindRunNearest searches [lo, hi) for a run of at least length set bits,
// preferring the run whose start is closest to pref (absolute distance).
// Returns -1 if no such run exists.
func (s *Set) FindRunNearest(lo, hi, length, pref int) int {
	best := -1
	bestDist := int(^uint(0) >> 1)
	i := lo
	for {
		start := s.FindRun(i, hi, length)
		if start < 0 {
			break
		}
		d := start - pref
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = start, d
		}
		if start >= pref {
			// Runs only get farther from pref from here on.
			break
		}
		// Skip past this run, word-wise. A run reaching hi means no
		// later candidate start exists below hi.
		next := start + s.runLengthFrom(start, 0)
		if next >= hi {
			break
		}
		i = next
	}
	return best
}

// Clone returns a deep copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Equal reports whether two sets have identical length and contents.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if o.words[i] != w {
			return false
		}
	}
	return true
}

// String renders the set as a compact 0/1 string, for tests and debugging
// of small maps. Sets longer than 256 bits are summarized.
func (s *Set) String() string {
	if s.n > 256 {
		return fmt.Sprintf("bitset{len=%d set=%d}", s.n, s.Count())
	}
	buf := make([]byte, s.n)
	for i := 0; i < s.n; i++ {
		if s.Test(i) {
			buf[i] = '1'
		} else {
			buf[i] = '0'
		}
	}
	return string(buf)
}

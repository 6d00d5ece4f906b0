package trace

import (
	"math"
	"slices"
)

// OpSorter puts ops in Compare order in time linear in their number,
// where a comparison sort takes n log n. It is the workload build's
// per-day sort. Sort works in four steps:
//
//  1. an LSD radix sort of (key, index) pairs on an order-preserving
//     uint64 image of each op's Sec;
//  2. when the ops span more than one day, radix passes on Day too;
//  3. one permutation of the ops, in place, into key order;
//  4. Compare on each run of ops tied on (Day, Sec), which puts the
//     rest of Compare's keys in order.
//
// Compare is a total order, so the result is exactly what
// slices.SortFunc(ops, Op.Compare) gives. Sec must not be NaN, which
// both codecs reject; Compare does not order NaN.
//
// The zero value is ready to use. An OpSorter keeps its scratch
// buffers from call to call, sized to the longest slice it has sorted,
// so Sort allocates nothing on a slice no longer than that. It is not
// safe for concurrent use.
type OpSorter struct {
	keys, spare []opKey
	counts      [8][256]int // per-byte histograms of the keys
}

// opKey is one op's radix key, the image of its Sec and then of its
// Day, and its index in the slice being sorted.
type opKey struct {
	key uint64
	idx int
}

// minRadix is the shortest slice Sort radix-sorts; on fewer ops,
// summing the byte histograms costs more than Compare's n log n.
const minRadix = 64

// secKey maps Sec to a uint64 whose unsigned order is Sec's order:
// the sign bit flipped on non-negative values, every bit flipped on
// negative ones. -0, which Compare sees as equal to +0, maps just below
// it; no key lies between the two, so they share a tie run.
func secKey(sec float64) uint64 {
	b := math.Float64bits(sec)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// Sort puts ops in Compare order.
func (s *OpSorter) Sort(ops []Op) {
	n := len(ops)
	if n < minRadix {
		slices.SortFunc(ops, Op.Compare)
		return
	}
	if len(s.keys) < n {
		s.keys, s.spare = make([]opKey, n), make([]opKey, n)
	}
	keys, spare := s.keys[:n], s.spare[:n]
	c := &s.counts
	*c = [8][256]int{}
	multiDay := false
	for i := range ops {
		k := secKey(ops[i].Sec)
		keys[i] = opKey{k, i}
		c[0][uint8(k)]++
		c[1][uint8(k>>8)]++
		c[2][uint8(k>>16)]++
		c[3][uint8(k>>24)]++
		c[4][uint8(k>>32)]++
		c[5][uint8(k>>40)]++
		c[6][uint8(k>>48)]++
		c[7][uint8(k>>56)]++
		multiDay = multiDay || ops[i].Day != ops[0].Day
	}
	keys, spare = radix(keys, spare, c, 8)
	if multiDay {
		*c = [8][256]int{}
		for i := range keys {
			k := uint64(uint32(ops[keys[i].idx].Day) ^ 1<<31)
			keys[i].key = k
			for d := range 4 {
				c[d][uint8(k>>(8*d))]++
			}
		}
		keys, _ = radix(keys, spare, c, 4)
	}

	// Permute in place, a cycle at a time: the op at keys[i].idx
	// belongs at i. A placed slot's idx becomes its own index.
	for i := range keys {
		if keys[i].idx == i {
			continue
		}
		held, at := ops[i], i
		for {
			from := keys[at].idx
			keys[at].idx = at
			if from == i {
				ops[at] = held
				break
			}
			ops[at], at = ops[from], from
		}
	}

	// Ops tied on (Day, Sec) are adjacent; Compare orders each run.
	for i := 0; i < n; {
		j := i + 1
		for j < n && ops[j].Day == ops[i].Day && ops[j].Sec == ops[i].Sec {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(ops[i:j], Op.Compare)
		}
		i = j
	}
}

// radix stably sorts keys by their low `digits` bytes, least
// significant first, through spare; counts[d] is the histogram of byte
// d. A pass on a byte every key shares is skipped. radix returns the
// sorted keys and the other buffer.
func radix(keys, spare []opKey, counts *[8][256]int, digits int) (sorted, other []opKey) {
	n := len(keys)
	for d := range digits {
		c, sh := &counts[d], 8*d
		if c[uint8(keys[0].key>>sh)] == n {
			continue
		}
		var at int
		for b := range c {
			at, c[b] = at+c[b], at
		}
		for _, k := range keys {
			b := uint8(k.key >> sh)
			spare[c[b]] = k
			c[b]++
		}
		keys, spare = spare, keys
	}
	return keys, spare
}

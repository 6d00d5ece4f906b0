package ffs

import (
	"slices"
	"testing"
)

// refExtents is the plain reference for both extent walks: list every
// access one block at a time (with each indirect block before the data
// block it precedes, when withMeta), then merge physically contiguous
// data accesses.
func refExtents(f *File, fpb int, withMeta bool) []Extent {
	var per []Extent
	for i, addr := range f.Blocks {
		if withMeta {
			for _, ind := range f.Indirects {
				if ind.BeforeLbn == i {
					per = append(per, Extent{Addr: ind.Addr, Frags: fpb, Meta: true})
				}
			}
		}
		n := fpb
		if i == len(f.Blocks)-1 {
			n = f.TailFrags
		}
		per = append(per, Extent{Addr: addr, Frags: n})
	}
	var out []Extent
	for _, e := range per {
		if k := len(out) - 1; k >= 0 && !e.Meta && !out[k].Meta && out[k].Addr+Daddr(out[k].Frags) == e.Addr {
			out[k].Frags += e.Frags
			continue
		}
		out = append(out, e)
	}
	return out
}

// decodeExtentFile builds a file from fuzz input. shape's low two bits
// pick the fragments per block (1, 2, 4 or 8) and bits 3–5 the tail;
// the fuzz target reads bit 2 and bits 6–7.
// Each blockMap byte places one block: mostly right after the previous
// one, else a short hop (possibly backward) or a far jump. Each pair of
// indirects bytes adds an indirect block some lbns past the previous
// one (so the list stays sorted by BeforeLbn), at a block address in
// the same range as the data.
func decodeExtentFile(shape uint8, blockMap, indirects []byte) (*File, int) {
	fpb := 1 << (shape & 3)
	f := &File{TailFrags: 1 + int(shape>>3&7)%fpb}
	x := int64(64)
	for _, b := range blockMap {
		switch b % 4 {
		case 0, 1:
			x++
		case 2:
			x += int64(b>>2)%8 - 4
		case 3:
			x = 1 + int64(b>>2)*5
		}
		x = max(x, 1)
		f.Blocks = append(f.Blocks, Daddr(x)*Daddr(fpb))
	}
	lbn := 0
	for i := 0; i+1 < len(indirects); i += 2 {
		lbn += int(indirects[i] % 32)
		a := indirects[i+1]
		f.Indirects = append(f.Indirects, Indirect{BeforeLbn: lbn, Addr: Daddr(1+int(a&0x7f)) * Daddr(fpb), Level: 1 + int(a>>7)})
	}
	return f, fpb
}

// FuzzExtentSequences checks both append walks against refExtents, on
// top of a non-empty destination prefix that must come back untouched —
// also when (shape bit 2) its last extent ends right where the file's
// first block starts, so a merge that reached into it would extend it.
// Shape bits 6–7 give the destination spare capacity past the prefix.
func FuzzExtentSequences(f *testing.F) {
	// Fourteen contiguous 8-fragment blocks with a full tail, crossing
	// lbn 12 where the single indirect block is read; prefix adjacent.
	f.Add(uint8(3|4|7<<3), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{12, 40}, []byte{9, 3})
	// Twenty-six blocks with a hop, a single indirect at lbn 12, and at
	// lbn 16 (four pointers per indirect) a double parent, then its
	// first child; two more children follow.
	f.Add(uint8(2|4|1<<3),
		[]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		[]byte{12, 20, 4, 0x80 | 21, 0, 22, 4, 23, 4, 24}, []byte{5, 0x81, 7, 2})
	f.Fuzz(func(t *testing.T, shape uint8, blockMap, indirects, prefix []byte) {
		file, fpb := decodeExtentFile(shape, blockMap, indirects)
		var pre []Extent
		for i := 0; i+1 < len(prefix); i += 2 {
			pre = append(pre, Extent{Addr: Daddr(prefix[i]) * Daddr(fpb), Frags: 1 + int(prefix[i+1]%16), Meta: prefix[i+1]&0x80 != 0})
		}
		if len(pre) == 0 {
			pre = append(pre, Extent{Addr: 0, Frags: fpb})
		}
		if shape&4 != 0 && len(file.Blocks) > 0 {
			pre[len(pre)-1] = Extent{Addr: file.Blocks[0] - 1, Frags: 1}
		}
		for _, walk := range []struct {
			name     string
			withMeta bool
			append   func(dst []Extent, fpb int) []Extent
		}{
			{"AppendDataExtents", false, file.AppendDataExtents},
			{"AppendReadSequence", true, file.AppendReadSequence},
		} {
			dst := make([]Extent, len(pre), len(pre)+int(shape>>6))
			copy(dst, pre)
			got := walk.append(dst, fpb)
			if !slices.Equal(got[:len(pre)], pre) {
				t.Fatalf("%s changed the prefix: %+v, want %+v", walk.name, got[:len(pre)], pre)
			}
			if want := refExtents(file, fpb, walk.withMeta); !slices.Equal(got[len(pre):], want) {
				t.Fatalf("%s appended %+v, want %+v", walk.name, got[len(pre):], want)
			}
		}
	})
}

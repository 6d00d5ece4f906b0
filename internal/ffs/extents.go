package ffs

// Extent is a physically contiguous run of fragments belonging to one
// file, in logical order. The benchmark harness turns extents into disk
// requests; every extent boundary is a potential seek.
type Extent struct {
	Addr  Daddr
	Frags int
	Meta  bool // an indirect block rather than file data
}

// AppendDataExtents appends f's data blocks, merged into maximal
// physically contiguous extents in logical order, to dst and returns
// the extended slice. Callers that walk many files pass one buffer back
// in as dst[:0], so the walk allocates only when the buffer grows.
func (f *File) AppendDataExtents(dst []Extent, fpb int) []Extent {
	return f.appendExtents(dst, fpb, false)
}

// AppendReadSequence appends the on-disk access sequence of a
// sequential read of f to dst and returns the extended slice: indirect
// blocks are visited immediately before the first data block they map,
// as the kernel must fetch them to learn the addresses that follow.
// Contiguous data accesses are merged.
func (f *File) AppendReadSequence(dst []Extent, fpb int) []Extent {
	return f.appendExtents(dst, fpb, true)
}

// appendExtents is the one walk behind both append forms; withMeta
// visits the indirect blocks. It scans one physically contiguous run of
// blocks at a time and appends it as one extent, so it never merges
// into the caller's prefix of dst.
func (f *File) appendExtents(dst []Extent, fpb int, withMeta bool) []Extent {
	// Index into f.Indirects, which Append builds sorted by the data
	// block each precedes (a double parent before its first child).
	next := len(f.Indirects)
	if withMeta {
		next = 0
	}
	n := len(f.Blocks)
	step := Daddr(fpb)
	for i := 0; i < n; {
		for next < len(f.Indirects) && f.Indirects[next].BeforeLbn == i {
			dst = append(dst, Extent{Addr: f.Indirects[next].Addr, Frags: fpb, Meta: true})
			next++
		}
		// A run stops at a gap or at the next indirect block visited.
		stop := n
		if next < len(f.Indirects) {
			if b := f.Indirects[next].BeforeLbn; b > i && b < stop {
				stop = b
			}
		}
		j := i + 1
		for j < stop && f.Blocks[j] == f.Blocks[j-1]+step {
			j++
		}
		frags := (j - i) * fpb
		if j == n {
			frags += f.TailFrags - fpb
		}
		dst = append(dst, Extent{Addr: f.Blocks[i], Frags: frags})
		i = j
	}
	return dst
}

// ExtentCount returns the number of data extents — 1 for a perfectly
// laid out file.
func (f *File) ExtentCount(fpb int) int {
	var buf [8]Extent
	return len(f.AppendDataExtents(buf[:0], fpb))
}

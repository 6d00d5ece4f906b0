package ffs

import "fmt"

// ptrsPerIndirect returns the number of block pointers an indirect
// block holds (4-byte pointers, as in 4.4BSD), cached at newfs time.
func (fs *FileSystem) ptrsPerIndirect() int { return fs.ppi }

// isSectionStart reports whether logical block lbn begins a new
// allocation section: the first block mapped by each indirect block
// (lbn 12, 12+2048, ...) and every fs_maxbpg multiple. At a section
// start FFS deliberately abandons contiguity and moves the file to a
// new cylinder group — the paper's "mandatory seek".
func (fs *FileSystem) isSectionStart(lbn int) bool {
	if lbn <= 0 {
		return false
	}
	if lbn >= NDirect && (lbn-NDirect)%fs.ptrsPerIndirect() == 0 {
		return true
	}
	return lbn%fs.P.MaxBpg == 0
}

// nextSectionStart returns the first section start after lbn ≥ 0, in
// closed form: the earlier of the next indirect-block boundary and the
// next fs_maxbpg multiple.
func (fs *FileSystem) nextSectionStart(lbn int) int {
	next := (lbn/fs.P.MaxBpg + 1) * fs.P.MaxBpg
	if lbn < NDirect {
		return min(next, NDirect)
	}
	ppi := fs.ptrsPerIndirect()
	return min(next, NDirect+((lbn-NDirect)/ppi+1)*ppi)
}

// pickSectionCg implements the section-switch scan of ffs_blkpref:
// starting just past the previous block's group, take the first group
// with at least the file-system-average number of free blocks.
func (fs *FileSystem) pickSectionCg(prevCg int) int {
	avg := fs.AvgBFree()
	ncg := len(fs.cgs)
	start := (prevCg + 1) % ncg
	for i := 0; i < ncg; i++ {
		cg := (start + i) % ncg
		if int64(fs.cgs[cg].nbfree) >= avg && fs.cgs[cg].nbfree > 0 {
			return cg
		}
	}
	return start
}

// frontPref returns the allocation preference ffs_blkpref produces for
// a block with no previous block: the start of the group's data area
// (cgbase + fs_frag in the BSD source). Front-first sweeping keeps
// small allocations packed at the front of each group, preserving the
// pools at the back — the free-space discipline the realloc policy's
// cluster searches depend on.
func (fs *FileSystem) frontPref(cgIdx int) Daddr {
	c := fs.cgs[cgIdx]
	return c.absFrag(c.DataStart())
}

// blkpref returns the preferred cylinder group and fragment address for
// f's logical block lbn, following ffs_blkpref (paper Section 2 and
// footnote 1):
//
//   - block 0: the inode's group, from the front of its data area;
//   - a section start: a fresh group with above-average free space,
//     again from the front;
//   - otherwise: the fragment immediately after the previous block.
func (fs *FileSystem) blkpref(f *File, lbn int) (cgIdx int, pref Daddr) {
	if lbn == 0 {
		return f.sectionCg, fs.frontPref(f.sectionCg)
	}
	if fs.isSectionStart(lbn) {
		prev := fs.cgIndexOf(f.Blocks[lbn-1])
		cg := fs.pickSectionCg(prev)
		fs.Stats.SectionSwitches++
		return cg, fs.frontPref(cg)
	}
	prevAddr := f.Blocks[lbn-1]
	pref = prevAddr + Daddr(fs.fpb)
	// Pre-clustering FFS spaced successive blocks by the rotational
	// delay instead of placing them adjacently.
	pref += Daddr(fs.rotDelayFrags)
	if pref >= Daddr(fs.totalFrags) {
		return fs.cgIndexOf(prevAddr), NilDaddr
	}
	return fs.cgIndexOf(pref), pref
}

// allocBlocksMech allocates a run of 1 to max full blocks, preferring
// (cgIdx, pref) and falling back across groups. The first block is
// picked exactly as a one-block request picks it; the run then extends
// over the free blocks physically after it, within the same group and
// within the free space left after the reserve. Each extra block is the
// ffs_blkpref preference of the one before it, so successive one-block
// requests would have claimed the same run with the same statistics
// (DESIGN §5.1). With a fault hook or a rotational delay the preference
// is not the next block, and the run is one block. Returns the first
// block's fragment address and the number of blocks claimed.
func (fs *FileSystem) allocBlocksMech(cgIdx int, pref Daddr, max int) (Daddr, int, error) {
	if fs.FaultHook != nil {
		if err := fs.FaultHook.BeforeAlloc(fs.fpb); err != nil {
			return 0, 0, err
		}
		max = 1
	}
	if fs.rotDelayFrags > 0 {
		max = 1
	}
	space := fs.freespace()
	if space < int64(fs.fpb) {
		fs.Stats.NoSpaceFailures++
		return 0, 0, ErrNoSpace
	}
	// A one-block request checks the reserve before every block.
	max = int(min(int64(max), space/int64(fs.fpb)))
	chosen := fs.hashalloc(cgIdx, func(c *CylGroup) bool { return c.nbfree > 0 })
	if chosen < 0 {
		fs.Stats.NoSpaceFailures++
		return 0, 0, ErrNoSpace
	}
	if chosen != cgIdx {
		fs.Stats.CgFallbacks++
		pref = NilDaddr
	}
	c := fs.cgs[chosen]
	prefRel := -1
	if pref != NilDaddr && pref >= c.startFrag && pref < c.startFrag+Daddr(c.nfrags) {
		prefRel = c.relFrag(pref)
	}
	// hashalloc chose a group with nbfree > 0, and allocBlocksNear
	// reports a group whose map disagrees as corrupt.
	b, n := c.allocBlocksNear(prefRel, max)
	fs.Stats.BlocksAllocated += int64(n)
	got := c.absFrag(b * fs.fpb)
	if prefRel >= 0 {
		if got == pref {
			fs.Stats.PrefHits++
		} else {
			fs.Stats.SameCgFallbacks++
		}
	}
	fs.Stats.PrefHits += int64(n - 1)
	return got, n, nil
}

// allocFragsMech allocates a run of n fragments (1 ≤ n < fpb),
// preferring (cgIdx, pref) and falling back across groups.
func (fs *FileSystem) allocFragsMech(cgIdx int, pref Daddr, n int) (Daddr, error) {
	if n <= 0 || n >= fs.fpb {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("ffs: allocFragsMech n=%d", n))
	}
	if fs.FaultHook != nil {
		if err := fs.FaultHook.BeforeAlloc(n); err != nil {
			return 0, err
		}
	}
	if fs.freespace() < int64(n) {
		fs.Stats.NoSpaceFailures++
		return 0, ErrNoSpace
	}
	canSatisfy := func(c *CylGroup) bool {
		if c.nbfree > 0 {
			return true
		}
		for k := n; k < fs.fpb; k++ {
			if c.frsum[k] > 0 {
				return true
			}
		}
		return false
	}
	chosen := fs.hashalloc(cgIdx, canSatisfy)
	if chosen < 0 {
		fs.Stats.NoSpaceFailures++
		return 0, ErrNoSpace
	}
	if chosen != cgIdx {
		fs.Stats.CgFallbacks++
		pref = NilDaddr
	}
	c := fs.cgs[chosen]
	prefRel := -1
	if pref != NilDaddr && pref >= c.startFrag && pref < c.startFrag+Daddr(c.nfrags) {
		prefRel = c.relFrag(pref)
	}
	idx := c.allocFrags(n, prefRel)
	if idx < 0 {
		throwCorrupt("allocFrags", chosen, "canSatisfy(%d) but allocFrags failed", n)
	}
	fs.Stats.FragAllocs++
	if prefRel >= 0 {
		if idx == prefRel {
			fs.Stats.PrefHits++
		} else {
			fs.Stats.SameCgFallbacks++
		}
	}
	return c.absFrag(idx), nil
}

// freeRange releases nfrags fragments starting at d. The range must lie
// within one cylinder group (callers free one block, one tail or one
// run from freeBlocks, which always satisfies this).
func (fs *FileSystem) freeRange(d Daddr, nfrags int) {
	c := fs.freeCg(d)
	c.freeFrags(c.relFrag(d), nfrags)
}

// freeBlocks releases the full blocks at addrs, last first, with one
// freeRange per run of physically consecutive blocks. A run stops at
// its group's start, taken once per run from the group's bounds.
func (fs *FileSystem) freeBlocks(addrs []Daddr) {
	fpb := Daddr(fs.fpb)
	for hi := len(addrs); hi > 0; {
		c := fs.freeCg(addrs[hi-1])
		lo := hi - 1
		for lo > 0 && addrs[lo-1] == addrs[lo]-fpb && addrs[lo-1] >= c.startFrag {
			lo--
		}
		c.freeFrags(c.relFrag(addrs[lo]), (hi-lo)*fs.fpb)
		hi = lo
	}
}

// freeCg returns the group holding d, which is about to be freed.
// cgIndexOf's arithmetic guess avoids CgOf's linear scan on this
// per-free path; relFrag still validates that d lies inside the chosen
// group.
func (fs *FileSystem) freeCg(d Daddr) *CylGroup {
	if d < 0 || d >= Daddr(fs.totalFrags) {
		throwCorrupt("freeRange", -1, "daddr %d outside file system", d)
	}
	return fs.cgs[fs.cgIndexOf(d)]
}

// TryReallocRun is the relocation mechanism behind the realloc policy
// (ffs_reallocblks + ffs_clusteralloc): attempt to move f's logical
// blocks [start, end) — all full blocks — into a single free run of
// end-start blocks in the group containing pref (or group cgIdx when
// pref is NilDaddr). Placement exactly at pref is tried first so that
// successive clusters chain end to end; when that run is taken (or pref
// is NilDaddr) the whole group is searched (see allocCluster). On
// success the old blocks are freed, the file's map is updated, and true
// is returned. The map is untouched on failure.
//
// The move happens before the data reaches disk (the blocks are dirty
// in the buffer cache), so it costs no extra I/O — only the allocator
// bookkeeping modelled here.
func (fs *FileSystem) TryReallocRun(f *File, start, end, cgIdx int, pref Daddr) bool {
	n := end - start
	if n <= 0 || n > fs.P.MaxContig {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("ffs: TryReallocRun [%d,%d) maxcontig %d", start, end, fs.P.MaxContig))
	}
	if end > len(f.Blocks) {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("ffs: TryReallocRun [%d,%d) beyond %d blocks", start, end, len(f.Blocks)))
	}
	if end == len(f.Blocks) && f.TailFrags != fs.fpb {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic("ffs: TryReallocRun includes a fragment tail")
	}
	c := fs.cgs[cgIdx]
	prefBlock := -1
	if pref != NilDaddr {
		c = fs.CgOf(pref)
		cgIdx = c.Index
		prefBlock = c.relFrag(pref) / fs.fpb
	}
	b := c.allocCluster(prefBlock, n)
	if b < 0 {
		return false
	}
	fs.freeBlocks(f.Blocks[start:end])
	newAddr := c.absFrag(b * fs.fpb)
	for i := start; i < end; i++ {
		f.Blocks[i] = newAddr + Daddr((i-start)*fs.fpb)
	}
	fs.Stats.ClusterMoves++
	fs.relayout(f)
	return true
}

// FindClusterCg locates a cylinder group holding a free run of at
// least n blocks, visiting groups in hashalloc order from prefCg — the
// search ffs_reallocblks performs via ffs_hashalloc(ffs_clusteralloc),
// which is what lets the realloc policy keep finding clusters somewhere
// on the disk long after the busiest groups have none. Returns -1 when
// no group qualifies.
func (fs *FileSystem) FindClusterCg(prefCg, n int) int {
	return fs.hashalloc(prefCg, func(c *CylGroup) bool { return c.HasCluster(n) })
}

// RunIsContiguous reports whether f's logical blocks [start, end) are
// physically contiguous.
func (f *File) RunIsContiguous(start, end, fpb int) bool {
	for i := start + 1; i < end; i++ {
		if f.Blocks[i] != f.Blocks[i-1]+Daddr(fpb) {
			return false
		}
	}
	return true
}

// ReallocPref computes the placement preference the realloc policy
// should chain a cluster beginning at logical block start to: the
// fragment after the previous block, unless start begins a section (or
// the file), in which case there is no preference and the cluster
// belongs wherever it already is. The second result is the target
// group.
func (fs *FileSystem) ReallocPref(f *File, start int) (Daddr, int) {
	if start == 0 || fs.isSectionStart(start) {
		return NilDaddr, fs.cgIndexOf(f.Blocks[start])
	}
	pref := f.Blocks[start-1] + Daddr(fs.fpb)
	if pref >= Daddr(fs.totalFrags) {
		return NilDaddr, fs.cgIndexOf(f.Blocks[start])
	}
	return pref, fs.cgIndexOf(pref)
}

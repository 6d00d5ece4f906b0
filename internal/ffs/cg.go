package ffs

import (
	"fmt"
	"math/bits"

	"ffsage/internal/bitset"
)

// CylGroup is one cylinder group: a fragment-granularity free map plus
// the summary structures FFS keeps to avoid scanning it — per-run-length
// free fragment counts (cg_frsum) and per-run-length free block cluster
// counts (cg_clustersum), each with a per-block index of its runs — and
// the inode map.
//
// Fragment indices and block indices in this type are group-relative;
// the FileSystem converts to and from absolute Daddr.
type CylGroup struct {
	fs    *FileSystem
	Index int

	startFrag Daddr // absolute address of group-relative fragment 0
	nfrags    int   // fragments in this group (multiple of fpb)
	nblk      int   // whole blocks in this group
	metaFrags int   // fragments reserved for sb copy, cg header, inodes

	free    *bitset.Set // fragment-level: set = free
	blkfree *bitset.Set // block-level: set = block fully free

	nffree int // free fragments in partially-allocated blocks
	nbfree int // fully free blocks

	// frsum[k] counts maximal runs of exactly k free fragments inside
	// partially-allocated blocks, 1 ≤ k < fpb.
	frsum []int
	// fragRuns[k], 1 ≤ k < fpb, is frsum's per-block index: bit b is
	// set iff block b holds a maximal run of exactly k free fragments.
	// Full blocks never appear in it, so allocFrags finds its donor
	// block with one word-wise NextSet instead of a walk over the group.
	fragRuns []*bitset.Set
	// clusterSum[k] counts maximal runs of free blocks of length k,
	// with k capped at maxcontig (the last bin counts all runs of at
	// least maxcontig blocks), 1 ≤ k ≤ maxcontig.
	clusterSum []int
	// clusterRuns[k], 1 ≤ k ≤ maxcontig+1, is the run index behind
	// clusterSum, as fragRuns is behind frsum: bit b is set iff a
	// maximal free-block run of exactly k blocks starts at block b, and
	// the last bin holds every run longer than maxcontig. FindFreeRun
	// reads run starts and lengths off it instead of walking the
	// group's free runs.
	clusterRuns []*bitset.Set

	inodes *bitset.Set // set = free inode
	nifree int
	ndir   int

	rotor int // fragment index where the next block search begins
}

func newCylGroup(fs *FileSystem, index int, startFrag Daddr, nfrags, metaFrags int) *CylGroup {
	fpb := fs.fpb
	if nfrags%fpb != 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("ffs: cg %d size %d not block aligned", index, nfrags))
	}
	c := &CylGroup{
		fs:          fs,
		Index:       index,
		startFrag:   startFrag,
		nfrags:      nfrags,
		nblk:        nfrags / fpb,
		metaFrags:   metaFrags,
		free:        bitset.New(nfrags),
		blkfree:     bitset.New(nfrags / fpb),
		frsum:       make([]int, fpb),
		fragRuns:    newRunIndex(fpb, nfrags/fpb),
		clusterSum:  make([]int, fs.P.MaxContig+1),
		clusterRuns: newRunIndex(fs.P.MaxContig+2, nfrags/fpb),
		inodes:      bitset.New(fs.ipg),
		nifree:      fs.ipg,
	}
	c.inodes.SetRange(0, fs.ipg)
	// Everything starts free...
	c.free.SetRange(0, nfrags)
	c.blkfree.SetRange(0, c.nblk)
	c.nbfree = c.nblk
	fs.freeFrags += int64(nfrags)
	fs.freeBlks += int64(c.nblk)
	c.clusterAdd(c.nblk)
	if c.nblk > 0 {
		c.clusterRuns[c.runBin(c.nblk)].Set(0)
	}
	// ...except the metadata area.
	if metaFrags > 0 {
		c.mutateFrags(0, metaFrags, true)
	}
	c.rotor = blkRoundUp(metaFrags, fpb)
	return c
}

// newRunIndex returns an empty run index (fragRuns or clusterRuns) of
// bins 1 ≤ k < n for a group of nblk blocks (slot 0 is unused).
func newRunIndex(n, nblk int) []*bitset.Set {
	r := make([]*bitset.Set, n)
	for k := 1; k < n; k++ {
		r[k] = bitset.New(nblk)
	}
	return r
}

func blkRoundUp(x, fpb int) int { return (x + fpb - 1) / fpb * fpb }

// NBFree returns the number of fully free blocks.
func (c *CylGroup) NBFree() int { return c.nbfree }

// FreeFrags returns the total free fragment count.
func (c *CylGroup) FreeFrags() int { return c.nffree + c.nbfree*c.fs.fpb }

// NIFree returns the number of free inodes.
func (c *CylGroup) NIFree() int { return c.nifree }

// DataStart returns the group-relative fragment index of the first
// fragment past the metadata area.
func (c *CylGroup) DataStart() int { return blkRoundUp(c.metaFrags, c.fs.fpb) }

// clusterAdd records a maximal free-block run of the given length
// appearing (lengths bin-capped at maxcontig).
func (c *CylGroup) clusterAdd(length int) {
	if length <= 0 {
		return
	}
	if length > c.fs.P.MaxContig {
		length = c.fs.P.MaxContig
	}
	c.clusterSum[length]++
}

func (c *CylGroup) clusterRemove(length int) {
	if length <= 0 {
		return
	}
	if length > c.fs.P.MaxContig {
		length = c.fs.P.MaxContig
	}
	if c.clusterSum[length] == 0 {
		throwCorrupt("clusterAcct", c.Index, "clusterSum[%d] underflow", length)
	}
	c.clusterSum[length]--
}

// runBin returns the clusterRuns bin of a free-block run of the given
// length: the length itself, or maxcontig+1 for any longer run.
func (c *CylGroup) runBin(length int) int { return min(length, c.fs.P.MaxContig+1) }

// clusterAcct updates the cluster summary and its run index when blocks
// [b0, b1) change together between free and allocated, in the style of
// ffs_clusteracct: measure the free runs on either side (capped at
// maxcontig+1), remove their old bins, add the new configuration's
// bins, and move at most three run starts in clusterRuns. A back run
// measured at the cap starts beyond the measurement, but it is in the
// last bin both before and after the change, so its start bit stays.
// The blocks' own blkfree bits are not read, so callers may flip them
// before or after.
func (c *CylGroup) clusterAcct(b0, b1 int, becomingFree bool) {
	long := c.fs.P.MaxContig + 1
	back := c.blkfree.RunLengthBefore(b0, long)
	fwd := 0
	if b1 < c.nblk {
		fwd = c.blkfree.RunLengthAt(b1, long)
	}
	n := b1 - b0
	whole, start := c.runBin(back+n+fwd), b0-back
	if becomingFree {
		c.clusterRemove(back)
		c.clusterRemove(fwd)
		c.clusterAdd(back + n + fwd)
		if back < long {
			if back > 0 {
				c.clusterRuns[back].Clear(start)
			}
			c.clusterRuns[whole].Set(start)
		}
		if fwd > 0 {
			c.clusterRuns[fwd].Clear(b1)
		}
	} else {
		c.clusterRemove(back + n + fwd)
		c.clusterAdd(back)
		c.clusterAdd(fwd)
		if back < long {
			c.clusterRuns[whole].Clear(start)
			if back > 0 {
				c.clusterRuns[back].Set(start)
			}
		}
		if fwd > 0 {
			c.clusterRuns[fwd].Set(b1)
		}
	}
}

// HasCluster reports whether the group contains a free run of at least
// n blocks (n ≤ maxcontig).
func (c *CylGroup) HasCluster(n int) bool {
	if n <= 0 {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic("ffs: HasCluster length <= 0")
	}
	if n > c.fs.P.MaxContig {
		return false
	}
	for k := n; k <= c.fs.P.MaxContig; k++ {
		if c.clusterSum[k] > 0 {
			return true
		}
	}
	return false
}

// blockPattern summarizes one block's fragment bitmap.
type blockPattern struct {
	full    bool   // all fragments free
	nf      int    // free fragments if not full
	runs    [9]int // runs[k]: maximal free runs of exactly k fragments, partial blocks only
	runMask uint8  // bit k set iff runs[k] > 0
}

// freeTotal returns the block's total free fragment count, whether the
// block is whole or partial.
func (p *blockPattern) freeTotal(fpb int) int {
	if p.full {
		return fpb
	}
	return p.nf
}

// buildPatternTable precomputes the blockPattern of every possible
// fragment free-mask for one block. Params.Validate restricts fpb to
// {1, 2, 4, 8}, so a block's free bits always fit in one byte and the
// table has at most 256 entries; pattern lookups become a single table
// index instead of a per-bit bitmap scan (the busiest loop in replay
// profiles before this table existed).
func buildPatternTable(fpb int) []blockPattern {
	t := make([]blockPattern, 1<<uint(fpb))
	for m := range t {
		p := &t[m]
		run := 0
		for i := 0; i < fpb; i++ {
			if m&(1<<uint(i)) != 0 {
				p.nf++
				run++
			} else if run > 0 {
				p.runs[run]++
				run = 0
			}
		}
		if run == fpb {
			p.full = true
			p.nf = 0
			continue
		}
		if run > 0 {
			p.runs[run]++
		}
		for k, r := range p.runs {
			if r > 0 {
				p.runMask |= 1 << uint(k)
			}
		}
	}
	return t
}

// freeMask returns block b's fragment free bits packed into a byte
// (bit i = fragment b*fpb+i free).
func (c *CylGroup) freeMask(b int) uint8 {
	return c.free.Mask8(b*c.fs.fpb, c.fs.fpb)
}

// pattern returns block b's summary. The result points into the file
// system's shared read-only pattern table and must not be mutated.
func (c *CylGroup) pattern(b int) *blockPattern {
	return &c.fs.patterns[c.freeMask(b)]
}

// mutateFrags flips the allocation state of group-relative fragments
// [lo, hi) to allocated (alloc=true) or free, updating every summary.
// It panics if any fragment is already in the requested state — the
// simulator's equivalent of a "freeing free block" kernel panic. The
// whole blocks inside the range change state as one run (mutateBlocks);
// only a partial head and tail block take the per-block pattern path.
func (c *CylGroup) mutateFrags(lo, hi int, alloc bool) {
	if lo < 0 || hi > c.nfrags || lo >= hi {
		throwCorrupt("mutateFrags", c.Index, "range [%d,%d) of %d", lo, hi, c.nfrags)
	}
	fpb := c.fs.fpb
	b0, b1 := (lo+fpb-1)/fpb, hi/fpb // the whole blocks in [lo, hi)
	if b0 >= b1 {
		c.mutatePartial(lo, hi, alloc)
		return
	}
	if lo < b0*fpb {
		c.mutatePartial(lo, b0*fpb, alloc)
	}
	c.mutateBlocks(b0, b1, alloc)
	if b1*fpb < hi {
		c.mutatePartial(b1*fpb, hi, alloc)
	}
}

// mutateBlocks flips whole blocks [b0, b1) between fully free and fully
// allocated in one step: a word-wise check of the fragment map, range
// flips of both bitmaps, and one cluster-summary update for the run. A
// fully free or fully allocated block holds no partial free run, so
// frsum, fragRuns and nffree do not change.
func (c *CylGroup) mutateBlocks(b0, b1 int, alloc bool) {
	fpb := c.fs.fpb
	lo, hi := b0*fpb, b1*fpb
	n := b1 - b0
	if alloc {
		if !c.free.TestRange(lo, hi) {
			c.badMutate(lo, hi, alloc)
		}
		c.free.ClearRange(lo, hi)
		c.blkfree.ClearRange(b0, b1)
		n = -n
	} else {
		if c.free.CountRange(lo, hi) != 0 {
			c.badMutate(lo, hi, alloc)
		}
		c.free.SetRange(lo, hi)
		c.blkfree.SetRange(b0, b1)
	}
	c.clusterAcct(b0, b1, !alloc)
	c.nbfree += n
	c.fs.freeBlks += int64(n)
	c.fs.freeFrags += int64(n * fpb)
}

// mutatePartial is mutateFrags for a range without whole blocks: each
// block it touches changes through its fragment pattern.
func (c *CylGroup) mutatePartial(lo, hi int, alloc bool) {
	fpb := c.fs.fpb
	patterns := c.fs.patterns
	for b := lo / fpb; b <= (hi-1)/fpb; b++ {
		base := b * fpb
		blo, bhi := base, base+fpb
		if blo < lo {
			blo = lo
		}
		if bhi > hi {
			bhi = hi
		}
		beforeMask := c.free.Mask8(base, fpb)
		seg := uint8(uint(1)<<uint(bhi-base)-1) &^ uint8(uint(1)<<uint(blo-base)-1)
		var afterMask uint8
		if alloc {
			// Allocating requires every targeted fragment free.
			if beforeMask&seg != seg {
				c.badMutate(blo, bhi, alloc)
			}
			c.free.ClearRange(blo, bhi)
			afterMask = beforeMask &^ seg
		} else {
			// Freeing requires every targeted fragment allocated.
			if beforeMask&seg != 0 {
				c.badMutate(blo, bhi, alloc)
			}
			c.free.SetRange(blo, bhi)
			afterMask = beforeMask | seg
		}
		c.applyPatternDelta(b, &patterns[beforeMask], &patterns[afterMask])
	}
}

// badMutate reports the first fragment of [lo, hi) already in the
// requested state, preserving the per-fragment diagnostic of the old
// bit-at-a-time loop.
func (c *CylGroup) badMutate(lo, hi int, alloc bool) {
	state := "free"
	if alloc {
		state = "allocated"
	}
	bad := lo
	for i := lo; i < hi; i++ {
		if c.free.Test(i) != alloc {
			bad = i
			break
		}
	}
	throwCorrupt("mutateFrags", c.Index, "frag %d already %s", bad, state)
}

func (c *CylGroup) applyPatternDelta(b int, before, after *blockPattern) {
	if before.full != after.full {
		if after.full {
			c.nbfree++
			c.fs.freeBlks++
			c.blkfree.Set(b)
			c.clusterAcct(b, b+1, true)
		} else {
			c.nbfree--
			c.fs.freeBlks--
			c.blkfree.Clear(b)
			c.clusterAcct(b, b+1, false)
		}
	}
	c.nffree += after.nf - before.nf
	c.fs.freeFrags += int64(after.freeTotal(c.fs.fpb) - before.freeTotal(c.fs.fpb))
	// Only the bins either pattern has runs in can change.
	for m := before.runMask | after.runMask; m != 0; m &= m - 1 {
		k := bits.TrailingZeros8(m)
		c.frsum[k] += after.runs[k] - before.runs[k]
		if c.frsum[k] < 0 {
			throwCorrupt("applyPatternDelta", c.Index, "frsum[%d] underflow", k)
		}
		if after.runs[k] > 0 {
			c.fragRuns[k].Set(b)
		} else {
			c.fragRuns[k].Clear(b)
		}
	}
}

// allocBlocksAt claims the n fully free blocks [b, b+n) with one map
// mutation and leaves the rotor on the last. It panics if b is not
// fully free (callers test first); mutateFrags reports any other block
// of the run that is not.
func (c *CylGroup) allocBlocksAt(b, n int) {
	if !c.blkfree.Test(b) {
		throwCorrupt("allocBlockAt", c.Index, "block %d not free", b)
	}
	fpb := c.fs.fpb
	c.mutateFrags(b*fpb, (b+n)*fpb, true)
	c.rotor = (b + n - 1) * fpb
}

// allocBlocksNear allocates a fully free block, preferring the block
// containing prefFrag (group-relative), then scanning forward with
// wrap-around — the ffs_mapsearch discipline, which takes the first free
// block it meets with no regard for the free run it sits in (the
// original policy's defect the paper studies). prefFrag < 0 means "use
// the group rotor". The claim then extends over the free blocks right
// after the first, up to max blocks in all and never past the group's
// end. Returns the first block's index and the run length, or -1 when
// the group has no free block.
func (c *CylGroup) allocBlocksNear(prefFrag, max int) (int, int) {
	b := c.allocBlockNearFree(prefFrag)
	if b < 0 {
		return -1, 0
	}
	n := 1
	if max > 1 && b+1 < c.nblk {
		n += c.blkfree.RunLengthAt(b+1, max-1)
	}
	c.allocBlocksAt(b, n)
	return b, n
}

// allocBlockNearFree is allocBlocksNear's search without the claim: it
// returns the first free block allocBlocksNear would take, or -1 when the
// group has none. The split path of allocFrags uses it to claim only
// part of the block.
func (c *CylGroup) allocBlockNearFree(prefFrag int) int {
	if c.nbfree == 0 {
		return -1
	}
	fpb := c.fs.fpb
	start := c.rotor / fpb
	if prefFrag >= 0 {
		start = prefFrag / fpb
		if start >= c.nblk {
			start = 0
		}
	}
	b := c.blkfree.NextSet(start)
	if b < 0 {
		b = c.blkfree.NextSet(0)
	}
	if b < 0 {
		throwCorrupt("allocBlockNear", c.Index, "nbfree=%d but no free block found", c.nbfree)
	}
	return b
}

// allocFrags allocates a run of n fragments (1 ≤ n < fpb) using the
// frsum best-fit discipline of ffs_alloccg: find the smallest free run
// size ≥ n that exists in a partial block; if none exists, break a full
// block. Returns the group-relative fragment index, or -1 when the
// group cannot satisfy the request.
func (c *CylGroup) allocFrags(n, prefFrag int) int {
	fpb := c.fs.fpb
	if n <= 0 || n >= fpb {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("ffs: allocFrags n=%d", n))
	}
	allocsiz := 0
	for k := n; k < fpb; k++ {
		if c.frsum[k] > 0 {
			allocsiz = k
			break
		}
	}
	if allocsiz == 0 {
		// No suitable fragment run anywhere: split a full block.
		b := c.allocBlockNearFree(prefFrag)
		if b < 0 {
			return -1
		}
		// Claim only the first n fragments; the pattern delta turns the
		// remaining fpb-n into a free run in frsum.
		c.mutateFrags(b*fpb, b*fpb+n, true)
		c.rotor = b * fpb
		return b * fpb
	}
	// The donor is the first block, cyclically from the preference (or
	// rotor), holding a maximal run of exactly allocsiz fragments — the
	// block a walk over the group's partial blocks would meet first.
	start := c.rotor / fpb
	if prefFrag >= 0 && prefFrag/fpb < c.nblk {
		start = prefFrag / fpb
	}
	donors := c.fragRuns[allocsiz]
	b := donors.NextSet(start)
	if b < 0 {
		b = donors.NextSet(0)
	}
	if b < 0 {
		throwCorrupt("allocFrags", c.Index, "frsum[%d]=%d but no run found", allocsiz, c.frsum[allocsiz])
	}
	idx := c.findRunInBlock(b, allocsiz)
	c.mutateFrags(idx, idx+n, true)
	c.rotor = b * fpb
	return idx
}

// findRunInBlock locates the first maximal free run of exactly length
// inside block b and returns its group-relative fragment index.
func (c *CylGroup) findRunInBlock(b, length int) int {
	fpb := c.fs.fpb
	base := b * fpb
	mask := c.freeMask(b)
	run, runStart := 0, -1
	for i := 0; i <= fpb; i++ {
		if i < fpb && mask&(1<<uint(i)) != 0 {
			if run == 0 {
				runStart = base + i
			}
			run++
			continue
		}
		if run == length {
			return runStart
		}
		run = 0
	}
	throwCorrupt("findRunInBlock", c.Index, "block %d has no run of %d", b, length)
	return -1 // unreachable
}

// extendFrags grows an existing fragment run in place from oldN to newN
// fragments (the ffs_fragextend path). It reports whether the extension
// succeeded; on failure the map is unchanged.
func (c *CylGroup) extendFrags(fragIdx, oldN, newN int) bool {
	fpb := c.fs.fpb
	if oldN <= 0 || newN <= oldN || newN > fpb {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("ffs: extendFrags %d→%d", oldN, newN))
	}
	if fragIdx/fpb != (fragIdx+newN-1)/fpb {
		return false // would cross a block boundary
	}
	if !c.free.TestRange(fragIdx+oldN, fragIdx+newN) {
		return false
	}
	c.mutateFrags(fragIdx+oldN, fragIdx+newN, true)
	return true
}

// allocCluster claims a run of n fully free blocks (the
// ffs_clusteralloc mechanism used by the realloc policy family). The
// search honours prefBlock first (exact placement, so clusters chain end
// to end); otherwise — including when prefBlock's run is taken — it
// searches the whole group with FindFreeRun's ChainFit, which keeps the
// group's large free runs usable for the file's next cluster (taking
// the first sufficient run instead shreds exactly the free space the
// policy depends on; Params.FirstFitClusters selects that literal
// 4.4BSD scan for the A4 ablation bench).
func (c *CylGroup) allocCluster(prefBlock, n int) int {
	b := prefBlock
	if b < 0 || b+n > c.nblk || !c.blkfree.TestRange(b, b+n) {
		fit := ChainFit
		if c.fs.P.FirstFitClusters {
			fit = FirstFit
		}
		if b = c.FindFreeRun(n, fit); b < 0 {
			return -1
		}
	}
	fpb := c.fs.fpb
	c.mutateFrags(b*fpb, (b+n)*fpb, true)
	c.rotor = b * fpb
	return b
}

// freeFrags releases group-relative fragments [fragIdx, fragIdx+n).
func (c *CylGroup) freeFrags(fragIdx, n int) {
	c.mutateFrags(fragIdx, fragIdx+n, false)
}

// allocInode claims the lowest free inode slot, or returns -1.
func (c *CylGroup) allocInode() int {
	i := c.inodes.NextSet(0)
	if i < 0 {
		return -1
	}
	c.inodes.Clear(i)
	c.nifree--
	return i
}

// freeInode releases inode slot i.
func (c *CylGroup) freeInode(i int) {
	if c.inodes.Test(i) {
		throwCorrupt("freeInode", c.Index, "inode %d already free", i)
	}
	c.inodes.Set(i)
	c.nifree++
}

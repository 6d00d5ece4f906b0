package ffs

import (
	"fmt"

	"ffsage/internal/bitset"
)

// CylGroup is one cylinder group: a fragment-granularity free map plus
// the summary structures FFS keeps to avoid scanning it — per-run-length
// free fragment counts (cg_frsum) and per-run-length free block cluster
// counts (cg_clustersum) — and the inode map.
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
	// clusterSum[k] counts maximal runs of free blocks of length k,
	// with k capped at maxcontig (the last bin counts all runs of at
	// least maxcontig blocks), 1 ≤ k ≤ maxcontig.
	clusterSum []int

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
		fs:         fs,
		Index:      index,
		startFrag:  startFrag,
		nfrags:     nfrags,
		nblk:       nfrags / fpb,
		metaFrags:  metaFrags,
		free:       bitset.New(nfrags),
		blkfree:    bitset.New(nfrags / fpb),
		frsum:      make([]int, fpb),
		clusterSum: make([]int, fs.P.MaxContig+1),
		inodes:     bitset.New(fs.ipg),
		nifree:     fs.ipg,
	}
	c.inodes.SetRange(0, fs.ipg)
	// Everything starts free...
	c.free.SetRange(0, nfrags)
	c.blkfree.SetRange(0, c.nblk)
	c.nbfree = c.nblk
	fs.freeFrags += int64(nfrags)
	fs.freeBlks += int64(c.nblk)
	c.clusterAdd(c.nblk)
	// ...except the metadata area.
	if metaFrags > 0 {
		c.mutateFrags(0, metaFrags, true)
	}
	c.rotor = blkRoundUp(metaFrags, fpb)
	return c
}

func blkRoundUp(x, fpb int) int { return (x + fpb - 1) / fpb * fpb }

// NFrags returns the number of fragments in the group.
func (c *CylGroup) NFrags() int { return c.nfrags }

// NBFree returns the number of fully free blocks.
func (c *CylGroup) NBFree() int { return c.nbfree }

// NFFree returns the number of free fragments outside free blocks.
func (c *CylGroup) NFFree() int { return c.nffree }

// FreeFrags returns the total free fragment count.
func (c *CylGroup) FreeFrags() int { return c.nffree + c.nbfree*c.fs.fpb }

// NIFree returns the number of free inodes.
func (c *CylGroup) NIFree() int { return c.nifree }

// NDir returns the number of directories allocated in the group.
func (c *CylGroup) NDir() int { return c.ndir }

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

// clusterAcct updates the cluster summary when block b transitions
// between free and allocated, in the style of ffs_clusteracct: measure
// the free runs on either side (capped at maxcontig), remove their old
// bins, add the new configuration's bins.
func (c *CylGroup) clusterAcct(b int, becomingFree bool) {
	max := c.fs.P.MaxContig
	back := 0
	for i := b - 1; i >= 0 && back < max && c.blkfree.Test(i); i-- {
		back++
	}
	fwd := 0
	for i := b + 1; i < c.nblk && fwd < max && c.blkfree.Test(i); i++ {
		fwd++
	}
	if becomingFree {
		c.clusterRemove(back)
		c.clusterRemove(fwd)
		c.clusterAdd(back + 1 + fwd)
	} else {
		c.clusterRemove(back + 1 + fwd)
		c.clusterAdd(back)
		c.clusterAdd(fwd)
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
	full    bool // all fragments free
	nf      int  // free fragments if not full
	runs    [9]int
	maxFree int
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
				if run > p.maxFree {
					p.maxFree = run
				}
			} else if run > 0 {
				p.runs[run]++
				run = 0
			}
		}
		if run == fpb {
			p.full = true
			p.nf = 0
			p.maxFree = fpb
			continue
		}
		if run > 0 {
			p.runs[run]++
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
// simulator's equivalent of a "freeing free block" kernel panic.
func (c *CylGroup) mutateFrags(lo, hi int, alloc bool) {
	if lo < 0 || hi > c.nfrags || lo >= hi {
		throwCorrupt("mutateFrags", c.Index, "range [%d,%d) of %d", lo, hi, c.nfrags)
	}
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
			c.clusterAcct(b, true)
		} else {
			c.nbfree--
			c.fs.freeBlks--
			c.blkfree.Clear(b)
			c.clusterAcct(b, false)
		}
	}
	c.nffree += after.nf - before.nf
	c.fs.freeFrags += int64(after.freeTotal(c.fs.fpb) - before.freeTotal(c.fs.fpb))
	for k := 1; k < c.fs.fpb; k++ {
		c.frsum[k] += after.runs[k] - before.runs[k]
		if c.frsum[k] < 0 {
			throwCorrupt("applyPatternDelta", c.Index, "frsum[%d] underflow", k)
		}
	}
}

// allocBlockAt claims the fully free block b. It panics if b is not
// fully free; callers test first.
func (c *CylGroup) allocBlockAt(b int) {
	if !c.blkfree.Test(b) {
		throwCorrupt("allocBlockAt", c.Index, "block %d not free", b)
	}
	fpb := c.fs.fpb
	c.mutateFrags(b*fpb, (b+1)*fpb, true)
	c.rotor = b * fpb
}

// allocBlockNear allocates a fully free block, preferring the block
// containing prefFrag (group-relative), then scanning forward with
// wrap-around — the ffs_mapsearch discipline, which takes the first free
// block it meets with no regard for the free run it sits in (the
// original policy's defect the paper studies). prefFrag < 0 means "use
// the group rotor". Returns the block index, or -1 when the group has
// no free block.
func (c *CylGroup) allocBlockNear(prefFrag int) int {
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
	c.allocBlockAt(b)
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
	// Scan partial blocks from the preference (or rotor) for a maximal
	// run of exactly allocsiz fragments.
	start := c.rotor / fpb
	if prefFrag >= 0 && prefFrag/fpb < c.nblk {
		start = prefFrag / fpb
	}
	for i := 0; i < c.nblk; i++ {
		b := (start + i) % c.nblk
		if c.blkfree.Test(b) {
			continue // full blocks are not fragment donors
		}
		p := c.pattern(b)
		if p.runs[allocsiz] == 0 {
			continue
		}
		// Find the run of exactly allocsiz within the block.
		idx := c.findRunInBlock(b, allocsiz)
		c.mutateFrags(idx, idx+n, true)
		c.rotor = b * fpb
		return idx
	}
	throwCorrupt("allocFrags", c.Index, "frsum[%d]=%d but no run found", allocsiz, c.frsum[allocsiz])
	return -1 // unreachable
}

// allocBlockNearFree is allocBlockNear without claiming the block; it
// returns a free block index or -1. Used by the split path, which wants
// to claim only part of the block.
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
	return b
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

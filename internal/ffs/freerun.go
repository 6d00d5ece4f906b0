package ffs

import "fmt"

// Free-run search: the one place that answers "which free run of n
// blocks gets the cluster?". The realloc mechanism (allocCluster) and
// every allocation policy use it, on the same block-level free map and
// cluster summaries. Every search is a deterministic forward walk — no
// randomness, no iteration-order dependence — so policies built on it
// inherit the repo's byte-identical replay guarantee.

// RunFit selects the free-run search discipline of FindFreeRun.
type RunFit int

const (
	// ChainFit, the zero value, takes the first free run with room to
	// spare (length > n), so the file's next cluster can chain directly
	// after this one; only when no such run exists does it settle for
	// the first exact fit. It is the realloc mechanism's default.
	ChainFit RunFit = iota
	// FirstFit takes the first free run of at least n blocks — the
	// literal 4.4BSD scan, and the discipline of the A4 ablation's
	// FirstFitClusters knob.
	FirstFit
	// BestFit takes the tightest free run of at least n blocks (every
	// run is visited, the one whose length is closest to n wins,
	// earliest on ties).
	BestFit
	// LargestFit takes the longest free run of at least n blocks
	// (earliest on ties) — the reservation discipline of the extent
	// policy, which wants maximal headroom after the run it places.
	LargestFit
)

// NBlocks returns the number of whole blocks in the group.
func (c *CylGroup) NBlocks() int { return c.nblk }

// FindFreeRun returns the group-relative block index of a free run of
// at least n blocks chosen by the given discipline, or -1 when the
// group has none. n must be in (0, maxcontig]; the cluster summary
// answers the existence question in O(1) before any scan runs.
func (c *CylGroup) FindFreeRun(n int, fit RunFit) int {
	if n <= 0 || n > c.fs.P.MaxContig {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("ffs: FindFreeRun n=%d maxcontig %d", n, c.fs.P.MaxContig))
	}
	if !c.HasCluster(n) {
		return -1
	}
	if fit == FirstFit {
		return c.blkfree.FindRun(0, c.nblk, n)
	}
	best, bestLen := -1, 0
	b := 0
	for {
		start := c.blkfree.NextSet(b)
		if start < 0 {
			break
		}
		length := c.blkfree.RunLengthAt(start, 0)
		b = start + length
		if length < n {
			continue
		}
		switch fit {
		case ChainFit:
			if length > n {
				return start
			}
			if best < 0 {
				best = start // first exact fit, the fallback
			}
		case BestFit:
			if best < 0 || length < bestLen {
				best, bestLen = start, length
				if length == n {
					return best // cannot fit tighter
				}
			}
		case LargestFit:
			if length > bestLen {
				best, bestLen = start, length
			}
		}
	}
	if best < 0 {
		throwCorrupt("FindFreeRun", c.Index, "HasCluster(%d) but scan found nothing", n)
	}
	return best
}

// FreeRunLenAt returns the length of the free block run starting at
// group-relative block b, capped at max (0 when b is allocated or out
// of range). The extent policy uses it to measure the headroom left
// after a placed run.
func (c *CylGroup) FreeRunLenAt(b, max int) int {
	if b < 0 || b >= c.nblk || max <= 0 {
		return 0
	}
	return c.blkfree.RunLengthAt(b, max)
}

// CgIndexOfAddr returns the index of the cylinder group containing the
// fragment address d (the exported form of the allocator's internal
// arithmetic lookup).
func (fs *FileSystem) CgIndexOfAddr(d Daddr) int { return fs.cgIndexOf(d) }

// BlockAddr converts group cg's group-relative block index b to the
// absolute fragment address policies hand to TryReallocRun as an exact
// placement preference.
func (fs *FileSystem) BlockAddr(cg, b int) Daddr {
	return fs.cgs[cg].absFrag(b * fs.fpb)
}

// FreeRunAfter returns the number of free blocks immediately following
// the block containing d, capped at max and stopping at the group
// boundary. A policy that just placed a run ending in d uses it to ask
// whether the next cluster can chain in place.
func (fs *FileSystem) FreeRunAfter(d Daddr, max int) int {
	c := fs.cgs[fs.cgIndexOf(d)]
	return c.FreeRunLenAt(c.relFrag(d)/fs.fpb+1, max)
}

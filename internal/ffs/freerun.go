package ffs

import (
	"fmt"

	"ffsage/internal/bitset"
)

// Free-run search: the one place that answers "which free run of n
// blocks gets the cluster?". The realloc mechanism (allocCluster) and
// every allocation policy use it, on the same block-level free map and
// cluster summaries. A search reads run starts off the group's
// clusterRuns index, bin by run length, so its cost does not grow with
// the number of free runs; only runs longer than maxcontig, whose bin
// does not say their length, are measured. Every search is
// deterministic — no randomness, no iteration-order dependence — so
// policies built on it inherit the repo's byte-identical replay
// guarantee.

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
	// BestFit takes the tightest free run of at least n blocks (the
	// one whose length is closest to n, earliest on ties).
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
// answers the existence question in O(1) before any index is read.
// Each discipline picks the run a forward walk over the group's free
// runs would pick; ties go to the earliest start.
func (c *CylGroup) FindFreeRun(n int, fit RunFit) int {
	maxContig := c.fs.P.MaxContig
	if n <= 0 || n > maxContig {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("ffs: FindFreeRun n=%d maxcontig %d", n, maxContig))
	}
	if !c.HasCluster(n) {
		return -1
	}
	b := -1
	switch fit {
	case FirstFit:
		b = c.firstRunIn(n, maxContig+1)
	case ChainFit:
		if b = c.firstRunIn(n+1, maxContig+1); b < 0 {
			b = c.firstRun(n)
		}
	case BestFit:
		for k := n; k <= maxContig && b < 0; k++ {
			b = c.firstRun(k)
		}
		if b < 0 {
			b = c.longRun(false)
		}
	case LargestFit:
		if b = c.longRun(true); b < 0 {
			for k := maxContig; k >= n && b < 0; k-- {
				b = c.firstRun(k)
			}
		}
	}
	if b < 0 {
		throwCorrupt("FindFreeRun", c.Index, "HasCluster(%d) but the run index holds none", n)
	}
	return b
}

// firstRun returns the earliest start in clusterRuns bin k, or -1 when
// the bin is empty. clusterSum says a bin is empty without a scan: its
// last bin counts the index's last two.
func (c *CylGroup) firstRun(k int) int {
	if c.clusterSum[min(k, c.fs.P.MaxContig)] == 0 {
		return -1
	}
	return c.clusterRuns[k].NextSet(0)
}

// firstRunIn returns the earliest start in clusterRuns bins [lo, hi],
// or -1 when they are all empty. One pass over the bins' union, from
// the group's first free block, stops at the first word holding a
// start: when short runs qualify, about where a walk over the runs
// would stop.
func (c *CylGroup) firstRunIn(lo, hi int) int {
	return bitset.NextSetAny(c.clusterRuns[lo:hi+1], c.blkfree.NextSet(0))
}

// longRun returns the start of the shortest run longer than maxcontig,
// or of the longest one when longest is set, earliest on ties; -1 when
// the group has no such run. These are the only runs whose length the
// index does not record, so they are the only ones measured.
func (c *CylGroup) longRun(longest bool) int {
	runs := c.clusterRuns[c.fs.P.MaxContig+1]
	best, bestLen := -1, 0
	for b := c.firstRun(c.fs.P.MaxContig + 1); b >= 0; {
		n := c.blkfree.RunLengthAt(b, 0)
		if best < 0 || (longest && n > bestLen) || (!longest && n < bestLen) {
			best, bestLen = b, n
		}
		b = runs.NextSet(b + n)
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

// Package core implements the two disk allocation policies the paper
// compares:
//
//   - Original: the traditional FFS policy. Blocks are allocated one at
//     a time; when the block following the previous one is taken, the
//     allocator settles for the next free block it finds, paying no
//     attention to the size of the free region that block sits in. No
//     reallocation ever happens.
//
//   - Realloc: McKusick's 4.4BSD-Lite enhancement (ffs_reallocblks).
//     Initial allocation is identical, but before a cluster of dirty,
//     logically sequential blocks is written to disk, the policy tries
//     to relocate the whole run into a single free cluster — preferring
//     placement immediately after the file's previous cluster, so
//     clusters chain end to end into layouts longer than maxcontig.
//
// Both are ffs.Policy implementations; the mechanism they share lives
// in internal/ffs, the decision logic here.
package core

import "ffsage/internal/ffs"

// Original is the traditional FFS allocation policy: no reallocation.
type Original struct{}

// Name implements ffs.Policy.
func (Original) Name() string { return "ffs" }

// FlushCluster implements ffs.Policy as a no-op: whatever the
// block-at-a-time allocator chose is what reaches disk.
func (Original) FlushCluster(*ffs.FileSystem, *ffs.File, int, int) {}

// Realloc is the 4.4BSD realloc allocation policy family.
//
// The zero value is McKusick's policy as the paper measured it,
// including the quirk the paper documents in Section 4: reallocation is
// not invoked until a file fills its second block, so two-block files
// whose second block is a fragment tail keep their original — often
// discontiguous — placement. The fields vary one decision each:
// ReallocSingleBlocks ablates the quirk (A2), InGroupOnly the
// cross-group search (A5), and Fit the free-run discipline of the
// cross-group fallback ("ffs+firstfit", "ffs+bestfit").
type Realloc struct {
	// ReallocSingleBlocks also engages the relocation machinery for
	// single-block runs, removing the paper's two-block-file dip.
	ReallocSingleBlocks bool
	// InGroupOnly restricts the cluster search to the preferred
	// cylinder group, disabling the ffs_hashalloc fallback across
	// groups — the A5 ablation, which shows the cross-group search is
	// what sustains the policy on a nearly full disk.
	InGroupOnly bool
	// Fit picks the free run in the group the fallback search lands
	// in. The zero value, ffs.ChainFit, is the mechanism's own search
	// (which Params.FirstFitClusters can switch to first fit); any
	// other value places the run by that discipline instead. The
	// chained attempt in pref's group always uses the mechanism's
	// search.
	Fit ffs.RunFit
}

// Name implements ffs.Policy.
func (r Realloc) Name() string {
	switch {
	case r.ReallocSingleBlocks:
		return "ffs+realloc(single)"
	case r.InGroupOnly:
		return "ffs+realloc(incg)"
	case r.Fit == ffs.FirstFit:
		return "ffs+firstfit"
	case r.Fit == ffs.BestFit:
		return "ffs+bestfit"
	case r.Fit == ffs.LargestFit:
		return "ffs+largestfit"
	default:
		return "ffs+realloc"
	}
}

// FlushCluster implements ffs.Policy: given the dirty run [start, end)
// of f, decide whether to relocate it and do so through the file
// system's cluster mechanism.
func (r Realloc) FlushCluster(fs *ffs.FileSystem, f *ffs.File, start, end int) {
	n := end - start
	if n <= 0 || n > fs.P.MaxContig {
		return
	}
	if !r.ReallocSingleBlocks && n == 1 {
		// Single-buffer "clusters" never reach the clustering code.
		// This is the quirk the paper documents: a file that has not
		// filled its second block flushes a one-block run, so its
		// (possibly discontiguous) first placement survives.
		return
	}
	fpb := fs.FragsPerBlock()
	pref, cgIdx := fs.ReallocPref(f, start)
	contiguous := f.RunIsContiguous(start, end, fpb)
	if contiguous && (pref == ffs.NilDaddr || f.Blocks[start] == pref) {
		return // nothing to gain
	}
	fs.Stats.ClusterAttempts++
	// Chain to the previous cluster: TryReallocRun takes the exact
	// placement at pref when it is free and otherwise searches pref's
	// whole group, so even a run that is already contiguous moves
	// whenever pref's group has room for it.
	if pref != ffs.NilDaddr && fs.TryReallocRun(f, start, end, cgIdx, pref) {
		return
	}
	if contiguous {
		return // pref's group is full; another spot buys nothing
	}
	// The run is internally fragmented: take any free cluster —
	// searching across cylinder groups in hashalloc order, as
	// ffs_reallocblks does through ffs_hashalloc(ffs_clusteralloc).
	cg := cgIdx
	if !r.InGroupOnly {
		if cg = fs.FindClusterCg(cgIdx, n); cg < 0 {
			return
		}
	}
	at := ffs.NilDaddr
	if r.Fit != ffs.ChainFit {
		b := fs.Cg(cg).FindFreeRun(n, r.Fit)
		if b < 0 {
			return
		}
		at = fs.BlockAddr(cg, b)
	}
	fs.TryReallocRun(f, start, end, cg, at)
}

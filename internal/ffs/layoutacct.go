package ffs

// Incremental layout accounting. The paper's aggregate layout score —
// optimally placed blocks over scoreable blocks, across every plain
// file — used to be recomputed with a full O(files × blocks) rescan
// after each simulated day, 300 times per aging run. Instead the file
// system maintains the two integer totals at mutation time: every
// operation that changes a file's block map refreshes that one file's
// cached contribution (O(blocks of that file)), so the daily score is
// an O(1) division. internal/layout.FsAggregate remains as the
// independent rescan: Check() asserts the two agree, and the aging
// tests compare them after every simulated day.

// FileLayoutCounts returns f's contribution to the aggregate layout
// score: the number of optimally placed blocks (physically contiguous
// with their predecessor) and the number of scoreable blocks (all but
// the first). Files with fewer than two blocks contribute nothing, and
// directories are never counted by the callers. The layout package
// scores files with it too.
func FileLayoutCounts(f *File, fpb int) (opt, total int) {
	n := len(f.Blocks)
	if n < 2 {
		return 0, 0
	}
	for i := 1; i < n; i++ {
		if f.Blocks[i] == f.Blocks[i-1]+Daddr(fpb) {
			opt++
		}
	}
	return opt, n - 1
}

// relayout refreshes f's cached layout contribution in the file-system
// totals after a mutation of its block map. It recomputes from the
// current map, so calling it more than once per mutation is harmless.
func (fs *FileSystem) relayout(f *File) {
	if f.IsDir {
		return
	}
	opt, total := FileLayoutCounts(f, fs.fpb)
	fs.layoutOpt += int64(opt - f.scoreOpt)
	fs.layoutTotal += int64(total - f.scoreTotal)
	f.scoreOpt, f.scoreTotal = opt, total
}

// dropLayout removes f's cached contribution (file deletion).
func (fs *FileSystem) dropLayout(f *File) {
	if f.IsDir {
		return
	}
	fs.layoutOpt -= int64(f.scoreOpt)
	fs.layoutTotal -= int64(f.scoreTotal)
	f.scoreOpt, f.scoreTotal = 0, 0
}

// LayoutScore returns the aggregate layout score of every plain file,
// from the incrementally maintained counters: identical to
// layout.FsAggregate but O(1). An empty (or all-small-file) system
// scores 1.0, as in the paper's convention.
func (fs *FileSystem) LayoutScore() float64 {
	if fs.layoutTotal == 0 {
		return 1.0
	}
	return float64(fs.layoutOpt) / float64(fs.layoutTotal)
}

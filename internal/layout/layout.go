// Package layout implements the paper's fragmentation metric (Section
// 3.3): the layout score. A block is optimally allocated when it is
// physically contiguous with the previous block of the same file; a
// file's layout score is the fraction of its blocks that are optimal,
// excluding the first block (which has no previous block). One-block
// files have no defined score. The aggregate layout score of a file
// system is the fraction of all scoreable blocks that are optimal.
package layout

import (
	"cmp"
	"slices"

	"ffsage/internal/ffs"
	"ffsage/internal/stats"
)

// FileScore returns the layout score of f and the number of scoreable
// blocks. ok is false for files with fewer than two blocks, whose score
// is undefined. A file's trailing fragment run counts as a block, as in
// the paper (two-block files are "one block and a partial second").
func FileScore(f *ffs.File, fpb int) (score float64, blocks int, ok bool) {
	optimal, total := ffs.FileLayoutCounts(f, fpb)
	if total == 0 {
		return 0, 0, false
	}
	return float64(optimal) / float64(total), total, true
}

// Aggregate returns the aggregate layout score over the given files:
// total optimal blocks / total scoreable blocks. Files with fewer than
// two blocks contribute nothing. It returns 1.0 when no file is
// scoreable (an empty file system is perfectly laid out).
func Aggregate(files []*ffs.File, fpb int) float64 {
	optimal, total := 0, 0
	for _, f := range files {
		o, t := ffs.FileLayoutCounts(f, fpb)
		optimal += o
		total += t
	}
	if total == 0 {
		return 1.0
	}
	return float64(optimal) / float64(total)
}

// AllFiles returns the file system's plain files (directories
// excluded), in inode order.
func AllFiles(fsys *ffs.FileSystem) []*ffs.File {
	all := fsys.Files()
	out := all[:0]
	for _, f := range all {
		if !f.IsDir {
			out = append(out, f)
		}
	}
	return out
}

// FsAggregate returns the aggregate layout score of every plain file on
// the file system — the number the paper plots in Figures 1 and 2 — by
// full rescan. The counts are exact integers, so no file ordering (and
// hence no sort) is needed; the file system's incrementally maintained
// LayoutScore returns the identical value in O(1), which is what the
// aging replayer uses per day. This rescan remains the independent
// cross-check: the aging tests compare the two after every simulated
// day, and Check() recounts the same totals.
func FsAggregate(fsys *ffs.FileSystem) float64 {
	fpb := fsys.FragsPerBlock()
	optimal, total := 0, 0
	for _, f := range fsys.Files() {
		if f.IsDir {
			continue
		}
		n := len(f.Blocks)
		if n < 2 {
			continue
		}
		total += n - 1
		for i := 1; i < n; i++ {
			if f.Blocks[i] == f.Blocks[i-1]+ffs.Daddr(fpb) {
				optimal++
			}
		}
	}
	if total == 0 {
		return 1.0
	}
	return float64(optimal) / float64(total)
}

// BySize distributes files into the given size buckets and computes the
// aggregate layout score of each (Figures 3, 5 and 6). Files outside
// every bucket, and files with undefined scores, are skipped. The
// returned buckets have Files, Blocks and Score populated.
func BySize(files []*ffs.File, fpb int, buckets []stats.SizeBucket) []stats.SizeBucket {
	out := make([]stats.SizeBucket, len(buckets))
	copy(out, buckets)
	optimal := make([]int, len(buckets))
	for _, f := range files {
		idx := stats.BucketIndex(out, f.Size)
		if idx < 0 {
			continue
		}
		o, t := ffs.FileLayoutCounts(f, fpb)
		if t == 0 {
			continue
		}
		out[idx].Files++
		out[idx].Blocks += t
		optimal[idx] += o
	}
	for i := range out {
		if out[i].Blocks > 0 {
			out[i].Score = float64(optimal[i]) / float64(out[i].Blocks)
		}
	}
	return out
}

// HotFiles returns the plain files modified on or after fromDay — the
// paper's approximation of the file system's active set (Section 5.2),
// sorted by directory then inode so that reads visit one cylinder
// group's files together, as the paper's benchmark did.
func HotFiles(fsys *ffs.FileSystem, fromDay int) []*ffs.File {
	all := fsys.Files()
	out := all[:0]
	for _, f := range all {
		if !f.IsDir && f.ModDay >= fromDay {
			out = append(out, f)
		}
	}
	// Files() is in inode order, so a stable sort by directory leaves
	// each directory's files in inode order.
	slices.SortStableFunc(out, func(a, b *ffs.File) int { return cmp.Compare(parentIno(a), parentIno(b)) })
	return out
}

// parentIno returns the inode number of f's directory, 0 for the root.
func parentIno(f *ffs.File) int {
	if f.Parent == nil {
		return 0
	}
	return f.Parent.Ino
}

// TotalBytes sums the sizes of the given files.
func TotalBytes(files []*ffs.File) int64 {
	var n int64
	for _, f := range files {
		n += f.Size
	}
	return n
}

// IntraFileSeeks counts the disk-arm repositionings a sequential read
// of every file would require: one per non-contiguous block transition,
// plus one per indirect block fetched outside the data stream. This is
// the quantity behind the paper's concluding claim that "the
// reallocation algorithm decreases the number of intra-file disk seeks
// by more than 50%" (§7).
func IntraFileSeeks(files []*ffs.File, fpb int) int {
	seeks := 0
	var seq []ffs.Extent
	for _, f := range files {
		prevEnd := ffs.NilDaddr
		seq = f.AppendReadSequence(seq[:0], fpb)
		for _, e := range seq {
			if prevEnd != ffs.NilDaddr && e.Addr != prevEnd {
				seeks++
			}
			prevEnd = e.Addr + ffs.Daddr(e.Frags)
		}
	}
	return seeks
}

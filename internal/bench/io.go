// Package bench implements the paper's performance benchmarks on aged
// file system images (Section 5): the sequential create/write + read
// sweep over file sizes (Figures 4 and 5), the hot-file benchmark over
// the files modified in the last simulated month (Table 2, Figure 6),
// and the raw-device reference measurements. Timing comes from the
// internal/disk model, driven by the exact block addresses the
// simulated allocator chose.
package bench

import (
	"fmt"

	"ffsage/internal/disk"
	"ffsage/internal/ffs"
)

// fileIO issues a file's disk traffic against a partition. It is not
// safe for concurrent use: every file's extent walk appends into the
// one reused buffer ext, valid until the next walk.
type fileIO struct {
	part *disk.Partition
	fs   *ffs.FileSystem
	ext  []ffs.Extent
}

func (io *fileIO) fragOff(d ffs.Daddr) int64 {
	return int64(d) * int64(io.fs.P.FragSize)
}

// writeCreate charges the cost of creating and writing f: the two
// synchronous metadata writes FFS performs at create time (directory
// block, inode block) followed by the data and indirect blocks in
// logical order. It returns the elapsed time in seconds.
func (io *fileIO) writeCreate(f *ffs.File) float64 {
	t := 0.0
	// Synchronous metadata: the directory's first fragment, then the
	// fragment holding the inode. These dominate small-file creates
	// (Section 5.1).
	if f.Parent != nil && len(f.Parent.Blocks) > 0 {
		t += io.part.Write(io.fragOff(f.Parent.Blocks[0]), int64(io.fs.P.FragSize))
	}
	t += io.part.Write(io.fragOff(io.fs.InodeDaddr(f.Ino)), int64(io.fs.P.FragSize))
	return t + io.writeData(f)
}

// writeData writes f's data (and indirect blocks) in logical order,
// merging physically contiguous runs; the disk model splits requests at
// the controller's 64 KB limit, where sequential writes lose rotations.
func (io *fileIO) writeData(f *ffs.File) float64 {
	t := 0.0
	io.ext = f.AppendReadSequence(io.ext[:0], io.fs.FragsPerBlock())
	for _, e := range io.ext {
		t += io.part.Write(io.fragOff(e.Addr), int64(e.Frags)*int64(io.fs.P.FragSize))
	}
	return t
}

// overwrite rewrites f's existing data blocks in place (the hot-file
// benchmark's write phase: no allocation, no create metadata).
func (io *fileIO) overwrite(f *ffs.File) float64 {
	t := 0.0
	io.ext = f.AppendDataExtents(io.ext[:0], io.fs.FragsPerBlock())
	for _, e := range io.ext {
		t += io.part.Write(io.fragOff(e.Addr), int64(e.Frags)*int64(io.fs.P.FragSize))
	}
	return t
}

// readBlockAtATime reads f the way pre-clustering file systems did: one
// request per file-system block, no request merging. Combined with a
// drive that has no track buffer, this is the régime the old rotdelay
// parameter was designed for (paper §1's [McVoy90] context, study A8).
func (io *fileIO) readBlockAtATime(f *ffs.File) float64 {
	fpb := io.fs.FragsPerBlock()
	t := io.part.Read(io.fragOff(io.fs.InodeDaddr(f.Ino)), int64(io.fs.P.FragSize))
	io.ext = f.AppendReadSequence(io.ext[:0], fpb)
	for _, e := range io.ext {
		for off := 0; off < e.Frags; off += fpb {
			n := fpb
			if off+n > e.Frags {
				n = e.Frags - off
			}
			t += io.part.Read(io.fragOff(e.Addr+ffs.Daddr(off)), int64(n)*int64(io.fs.P.FragSize))
		}
	}
	return t
}

// read reads f sequentially: the inode, then data with indirect blocks
// visited where the kernel needs them.
func (io *fileIO) read(f *ffs.File) float64 {
	t := io.part.Read(io.fragOff(io.fs.InodeDaddr(f.Ino)), int64(io.fs.P.FragSize))
	io.ext = f.AppendReadSequence(io.ext[:0], io.fs.FragsPerBlock())
	for _, e := range io.ext {
		t += io.part.Read(io.fragOff(e.Addr), int64(e.Frags)*int64(io.fs.P.FragSize))
	}
	return t
}

// newRig builds a disk and partition sized for the file system and
// returns the I/O helper. The partition must be at least as large as
// the file system.
func newRig(fsys *ffs.FileSystem, p disk.Params) (*fileIO, error) {
	d := disk.New(p)
	sectors := fsys.P.SizeBytes / int64(p.Geom.SectorSize)
	if sectors > d.Params().Geom.TotalSectors()/2 {
		return nil, fmt.Errorf("bench: file system (%d MB) too large for disk model",
			fsys.P.SizeBytes>>20)
	}
	start := d.Params().Geom.TotalSectors() / 4
	part := disk.NewPartition(d, start, sectors)
	return &fileIO{part: part, fs: fsys}, nil
}

// RawThroughput measures raw-device sequential throughput over a
// partition the size of the file system (Figure 4's reference lines).
// Returns bytes/second.
func RawThroughput(fsBytes int64, p disk.Params, totalBytes int64, write bool) float64 {
	d := disk.New(p)
	sectors := fsBytes / int64(p.Geom.SectorSize)
	part := disk.NewPartition(d, d.Params().Geom.TotalSectors()/4, sectors)
	return part.RawThroughput(totalBytes, int64(p.MaxTransfer), write)
}

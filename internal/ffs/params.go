// Package ffs implements a block-allocation-level simulator of the
// 4.4BSD Fast File System: superblock parameters, cylinder groups with
// fragment bitmaps, per-fragment-size summaries (frsum) and free-cluster
// summaries, inodes with direct and indirect block chains, directories,
// and the complete allocation mechanism (blkpref, alloccg, fragextend,
// clusteralloc, quadratic hashing across groups, block and fragment
// free). File *contents* are not stored — only sizes and disk addresses
// — which is all the paper's fragmentation and throughput analyses need.
//
// The allocation *policy* under study (original vs. realloc) is supplied
// by the caller through the Policy interface; implementations live in
// internal/core (the paper's two) and internal/policy (the registry and
// its contenders). Policies place relocated runs through one free-run
// search, CylGroup.FindFreeRun, which also backs clusteralloc.
package ffs

import "fmt"

// Params are the newfs-time file system parameters. PaperParams matches
// Table 1's file-system column.
type Params struct {
	// SizeBytes is the partition size.
	SizeBytes int64
	// BlockSize and FragSize are the FFS block and fragment sizes;
	// BlockSize must be a power-of-two multiple of FragSize, at most 8×.
	BlockSize int
	FragSize  int
	// NumCg is the number of cylinder groups.
	NumCg int
	// MaxContig is the largest cluster, in blocks, that the clustering
	// code will build (fs_maxcontig; 7 × 8 KB = 56 KB in the paper).
	MaxContig int
	// MaxBpg is the largest number of blocks a single file may allocate
	// from one cylinder group before being forced to move on
	// (fs_maxbpg; BSD default is blocks-per-indirect-block).
	MaxBpg int
	// MinFreePct is the free-space reserve percentage (fs_minfree).
	MinFreePct int
	// BytesPerInode sets inode density (newfs -i).
	BytesPerInode int
	// RotDelay is fs_rotdelay in milliseconds; the paper's file systems
	// use 0 (the modern setting), which makes "next rotationally
	// optimal block" simply "the next block". A non-zero value
	// reproduces the pre-clustering FFS discipline: successive blocks
	// of a file are deliberately spaced by the distance the platter
	// travels in RotDelay ms, so block-at-a-time I/O does not lose a
	// revolution per block (the A8 study).
	RotDelay int
	// LogicalRPS is the fs's notion of revolutions per second
	// (fs_rps), used only to convert RotDelay into a fragment skip.
	LogicalRPS int
	// FirstFitClusters switches the mechanism's cluster search to the
	// literal 4.4BSD first-fit scan instead of the default chain-aware
	// fit (which prefers runs with room for the file's next cluster).
	// Unlike a policy's core.Realloc.Fit, it applies to every
	// group-wide search, including the fallback when the chained slot
	// is taken. The A4 ablation bench measures the difference; see
	// DESIGN.md §5.2.
	FirstFitClusters bool
	// LogicalHeads / LogicalSectors mirror the fs's notion of disk
	// geometry (Table 1 italic values). They are retained for fidelity
	// of reporting; block-to-sector mapping is linear.
	LogicalHeads   int
	LogicalSectors int
}

// PaperParams returns the paper's 502 MB file system configuration.
func PaperParams() Params {
	return Params{
		SizeBytes:      502 << 20,
		BlockSize:      8 << 10,
		FragSize:       1 << 10,
		NumCg:          27,
		MaxContig:      7,
		MaxBpg:         2048, // 8192/4 bytes per block pointer
		MinFreePct:     10,
		BytesPerInode:  4096,
		RotDelay:       0,
		LogicalRPS:     90, // 5411 RPM ≈ 90 rev/s
		LogicalHeads:   22,
		LogicalSectors: 118,
	}
}

// Validate checks the parameter set for internal consistency.
func (p Params) Validate() error {
	switch {
	case p.SizeBytes <= 0:
		return fmt.Errorf("ffs: non-positive size %d", p.SizeBytes)
	case p.FragSize <= 0 || p.BlockSize <= 0:
		return fmt.Errorf("ffs: non-positive block/frag size")
	case p.BlockSize%p.FragSize != 0:
		return fmt.Errorf("ffs: block size %d not a multiple of frag size %d", p.BlockSize, p.FragSize)
	}
	fpb := p.BlockSize / p.FragSize
	if fpb != 1 && fpb != 2 && fpb != 4 && fpb != 8 {
		return fmt.Errorf("ffs: frags per block %d not in {1,2,4,8}", fpb)
	}
	switch {
	case p.NumCg <= 0:
		return fmt.Errorf("ffs: non-positive cylinder group count %d", p.NumCg)
	case p.MaxContig < 1:
		return fmt.Errorf("ffs: maxcontig %d < 1", p.MaxContig)
	case p.MaxBpg < 1:
		return fmt.Errorf("ffs: maxbpg %d < 1", p.MaxBpg)
	case p.MinFreePct < 0 || p.MinFreePct > 99:
		return fmt.Errorf("ffs: minfree %d%% out of range", p.MinFreePct)
	case p.BytesPerInode < p.FragSize:
		return fmt.Errorf("ffs: bytes-per-inode %d below frag size", p.BytesPerInode)
	}
	if p.SizeBytes/int64(p.BlockSize)/int64(p.NumCg) < 64 {
		return fmt.Errorf("ffs: cylinder groups too small (%d blocks each)",
			p.SizeBytes/int64(p.BlockSize)/int64(p.NumCg))
	}
	return nil
}

// FragsPerBlock returns BlockSize/FragSize.
func (p Params) FragsPerBlock() int { return p.BlockSize / p.FragSize }

// TotalFrags returns the number of fragments on the partition.
func (p Params) TotalFrags() int64 { return p.SizeBytes / int64(p.FragSize) }

// TotalBlocks returns the number of whole blocks on the partition.
func (p Params) TotalBlocks() int64 { return p.SizeBytes / int64(p.BlockSize) }

// ClusterBytes returns the maximum cluster size in bytes (56 KB for the
// paper's configuration).
func (p Params) ClusterBytes() int64 { return int64(p.MaxContig) * int64(p.BlockSize) }

// RotDelayFrags converts the rotational-delay parameter into the
// fragment skip ffs_blkpref adds between successive blocks: the
// sectors passing under the head in RotDelay milliseconds, rounded up
// to whole blocks (a preference must be block-aligned).
func (p Params) RotDelayFrags() int {
	if p.RotDelay <= 0 || p.LogicalRPS <= 0 {
		return 0
	}
	sectors := float64(p.RotDelay) / 1000 * float64(p.LogicalRPS) * float64(p.LogicalSectors)
	frags := int(sectors * 512 / float64(p.FragSize))
	fpb := p.FragsPerBlock()
	if frags <= 0 {
		return 0
	}
	return (frags + fpb - 1) / fpb * fpb
}

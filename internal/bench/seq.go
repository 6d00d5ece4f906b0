package bench

import (
	"context"
	"fmt"
	"sync"

	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/runner"
)

// SeqResult is one point of the sequential I/O sweep (Figure 4) plus
// the layout score of the files the benchmark created (Figure 5).
type SeqResult struct {
	FileSize    int64
	NFiles      int
	WriteBps    float64 // create+write phase throughput, bytes/second
	ReadBps     float64
	LayoutScore float64 // of the benchmark-created files
	// Disk is the point's full disk-model accounting, including the
	// per-request time-attribution matrix behind the report's time
	// attribution table.
	Disk disk.Stats
}

// maxFilesPerDir matches the paper: "the data was divided into
// subdirectories, each containing no more than twenty-five files",
// spreading the corpus across cylinder groups.
const maxFilesPerDir = 25

// ioUnit is the benchmark's write granularity: "Large files were
// created using as many four megabyte writes as necessary."
const ioUnit int64 = 4 << 20

// scratchImages holds file systems that earlier sequential runs have
// finished with, for the next run to copy its aged image into. A run
// owns the scratch image it takes until it puts it back, so concurrent
// size points never share one.
var scratchImages sync.Pool // of *ffs.FileSystem

// SequentialIO runs the paper's sequential benchmark for one file size
// on a copy of the aged image: create totalBytes/fileSize files
// (write phase), then read them back in creation order. The image is
// not modified. The copy goes into a scratch image that earlier runs
// left behind (ffs.CloneInto), and nothing in the result points into it.
func SequentialIO(image *ffs.FileSystem, p disk.Params, fileSize, totalBytes int64, day int) (SeqResult, error) {
	if fileSize <= 0 || totalBytes < fileSize {
		return SeqResult{}, fmt.Errorf("bench: bad sizes file=%d total=%d", fileSize, totalBytes)
	}
	scratch, _ := scratchImages.Get().(*ffs.FileSystem)
	fsys := image.CloneInto(scratch)
	defer scratchImages.Put(fsys)
	// The paper's benchmarks ran as root: the minfree reserve is
	// available, so a 32 MB corpus fits on a ~90%-utilized aged image.
	fsys.IgnoreReserve = true
	io, err := newRig(fsys, p)
	if err != nil {
		return SeqResult{}, err
	}
	nFiles := int(totalBytes / fileSize)
	res := SeqResult{FileSize: fileSize, NFiles: nFiles}

	// Create phase.
	var files []*ffs.File
	var dir *ffs.File
	writeTime := 0.0
	for i := 0; i < nFiles; i++ {
		if i%maxFilesPerDir == 0 {
			dir, err = fsys.Mkdir(fsys.Root(), fmt.Sprintf("seq%03d", i/maxFilesPerDir), day)
			if err != nil {
				return SeqResult{}, fmt.Errorf("bench: mkdir: %w", err)
			}
		}
		f, err := fsys.CreateFile(dir, fmt.Sprintf("f%04d", i), 0, day)
		if err != nil {
			return SeqResult{}, fmt.Errorf("bench: create %d: %w", i, err)
		}
		// Write in 4 MB units, as the paper's benchmark did.
		for remaining := fileSize; remaining > 0; {
			chunk := remaining
			if chunk > ioUnit {
				chunk = ioUnit
			}
			if err := fsys.Append(f, chunk, day); err != nil {
				return SeqResult{}, fmt.Errorf("bench: write %d: %w", i, err)
			}
			remaining -= chunk
		}
		writeTime += io.writeCreate(f)
		files = append(files, f)
	}

	// Read phase: same order as creation.
	readTime := 0.0
	for _, f := range files {
		readTime += io.read(f)
	}

	written := int64(nFiles) * fileSize
	res.WriteBps = float64(written) / writeTime
	res.ReadBps = float64(written) / readTime
	res.LayoutScore = layout.Aggregate(files, fsys.FragsPerBlock())
	res.Disk = io.part.Disk().Stats()
	return res, nil
}

// SequentialSweep runs SequentialIO for each file size. PaperSizes
// lists the sweep the paper's figures cover, including the off-power
// points that expose the 96→104 KB indirect-block cliff and the 64 KB
// transfer-limit effect. Size points are independent (each runs on its
// own copy and its own disk), so they execute concurrently on the
// runner's configured worker count; results are indexed by size
// regardless of completion order.
func SequentialSweep(image *ffs.FileSystem, p disk.Params, sizes []int64, totalBytes int64, day int) ([]SeqResult, error) {
	out := make([]SeqResult, len(sizes))
	g := runner.New(context.Background())
	for i, size := range sizes {
		g.Go(fmt.Sprintf("seq %dK", size>>10), func(context.Context) error {
			r, err := SequentialIO(image, p, size, totalBytes, day)
			if err != nil {
				return fmt.Errorf("bench: size %d: %w", size, err)
			}
			out[i] = r
			return nil
		})
	}
	if _, err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// PaperSizes returns the file sizes of the Figure 4/5 sweep: 16 KB to
// 32 MB with intermediate points around the interesting cliffs.
func PaperSizes() []int64 {
	kb := func(n int64) int64 { return n << 10 }
	return []int64{
		kb(16), kb(24), kb(32), kb(48), kb(64), kb(96), kb(104), kb(128),
		kb(192), kb(256), kb(384), kb(512), kb(1024), kb(2048), kb(4096),
		kb(8192), kb(16384), kb(32768),
	}
}

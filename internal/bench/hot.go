package bench

import (
	"fmt"

	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/stats"
)

// HotResult reproduces Table 2: the layout score and read/write
// throughput of the files modified during the last month of the aging
// simulation, plus the by-size breakdown behind Figure 6.
type HotResult struct {
	NFiles     int
	TotalBytes int64
	// FracFiles and FracBytes report the hot set's share of the file
	// system (the paper: 10.5% of files, 19% of allocated space).
	FracFiles float64
	FracBytes float64

	LayoutScore float64
	ReadBps     float64
	WriteBps    float64

	// Disk is the benchmark's full disk-model accounting, including the
	// per-request time-attribution matrix.
	Disk disk.Stats

	BySize []stats.SizeBucket
}

// HotFiles measures the hot set of the aged image: all plain files
// modified on or after fromDay, visited in directory order (one
// cylinder group's files together) as in Section 5.2. Reads include
// inode fetches; the write phase overwrites files in place, so it
// carries no allocation or create-metadata cost. The benchmark only
// reads the image — block addresses go to a private disk model — so
// it runs on the image in place, and concurrent calls may share one.
func HotFiles(image *ffs.FileSystem, p disk.Params, fromDay int) (HotResult, error) {
	h, err := newHotSet(image, fromDay)
	if err != nil {
		return HotResult{}, err
	}
	return h.run(p)
}

// hotSet is the disk-independent half of the hot-file benchmark: the
// hot files in visiting order and the result fields that depend only
// on the image.
type hotSet struct {
	fsys  *ffs.FileSystem
	files []*ffs.File
	res   HotResult // ReadBps, WriteBps and Disk unset
}

func newHotSet(fsys *ffs.FileSystem, fromDay int) (*hotSet, error) {
	files := layout.HotFiles(fsys, fromDay)
	if len(files) == 0 {
		return nil, fmt.Errorf("bench: no files modified on or after day %d", fromDay)
	}
	h := &hotSet{fsys: fsys, files: files}
	res := &h.res
	res.NFiles = len(files)
	res.TotalBytes = layout.TotalBytes(files)
	all := layout.AllFiles(fsys)
	res.FracFiles = float64(len(files)) / float64(len(all))
	res.FracBytes = float64(res.TotalBytes) / float64(layout.TotalBytes(all))
	res.LayoutScore = layout.Aggregate(files, fsys.FragsPerBlock())
	buckets := stats.PowerOfTwoBuckets(16<<10, 16<<20)
	res.BySize = layout.BySize(files, fsys.FragsPerBlock(), buckets)
	return h, nil
}

// run reads every hot file, then overwrites every one, on a fresh disk
// with parameters p. Runs share nothing mutable, so several may run at
// once; their results share the BySize slice.
func (h *hotSet) run(p disk.Params) (HotResult, error) {
	io, err := newRig(h.fsys, p)
	if err != nil {
		return HotResult{}, err
	}
	res := h.res
	readTime := 0.0
	for _, f := range h.files {
		readTime += io.read(f)
	}
	writeTime := 0.0
	for _, f := range h.files {
		writeTime += io.overwrite(f)
	}
	res.ReadBps = float64(res.TotalBytes) / readTime
	res.WriteBps = float64(res.TotalBytes) / writeTime
	res.Disk = io.part.Disk().Stats()
	return res, nil
}

package bench

import (
	"fmt"

	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
)

// CacheStudyRow is one buffer-cache size in the A9 study.
type CacheStudyRow struct {
	CacheBytes int64
	// FirstPassBps and SecondPassBps are the hot-set read throughputs
	// of two consecutive passes (bytes/second).
	FirstPassBps  float64
	SecondPassBps float64
	// HitRate is the second pass's cache hit fraction.
	HitRate float64
}

// CacheStudy justifies the paper's hot-set construction ("Since these
// files cannot all fit in the buffer cache, their layout and
// performance should have a large effect on the overall performance"):
// it reads the aged image's hot set twice through an LRU buffer cache
// of each given size. Once the cache is larger than the set, the
// second pass runs at memory speed and on-disk layout stops mattering;
// below that, LRU's sequential-scan behaviour keeps the hit rate at
// zero and every pass pays full disk cost.
func CacheStudy(image *ffs.FileSystem, p disk.Params, fromDay int, cacheSizes []int64) ([]CacheStudyRow, error) {
	fsys := image.Clone()
	files := layout.HotFiles(fsys, fromDay)
	if len(files) == 0 {
		return nil, fmt.Errorf("bench: no hot files from day %d", fromDay)
	}
	total := layout.TotalBytes(files)
	var out []CacheStudyRow
	for _, size := range cacheSizes {
		d := disk.New(p)
		sectors := fsys.P.SizeBytes / int64(p.Geom.SectorSize)
		part := disk.NewPartition(d, d.Params().Geom.TotalSectors()/4, sectors)
		cache := disk.NewBlockCache(part, int64(fsys.P.BlockSize), size)

		var seq []ffs.Extent
		pass := func() float64 {
			elapsed := 0.0
			for _, f := range files {
				seq = f.AppendReadSequence(seq[:0], fsys.FragsPerBlock())
				for _, e := range seq {
					off := int64(e.Addr) * int64(fsys.P.FragSize)
					elapsed += cache.Read(off, int64(e.Frags)*int64(fsys.P.FragSize))
				}
			}
			return elapsed
		}
		t1 := pass()
		h0, m0 := cache.Stats()
		t2 := pass()
		h1, m1 := cache.Stats()
		row := CacheStudyRow{
			CacheBytes:    size,
			FirstPassBps:  float64(total) / t1,
			SecondPassBps: float64(total) / t2,
		}
		if dh, dm := h1-h0, m1-m0; dh+dm > 0 {
			row.HitRate = float64(dh) / float64(dh+dm)
		}
		out = append(out, row)
	}
	return out, nil
}

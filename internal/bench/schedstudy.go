package bench

import (
	"fmt"
	"sort"

	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
)

// SchedStudyRow is one (image, discipline) cell of the A10 study.
type SchedStudyRow struct {
	Image      string
	Discipline disk.Discipline
	WriteBps   float64
}

// SchedulingStudy separates what layout buys from what request
// scheduling buys: overwrite every hot file on an aged image, but
// instead of issuing writes file by file, submit them all to a driver
// queue and drain it under each discipline. The instructive outcome:
// sorting alone (the elevator) can lose to arrival order, because it
// converts long seeks — whose rotational landing phase is effectively
// random — into short hops that each wait nearly a full revolution;
// only sorting plus coalescing recovers both the seek and the rotation
// costs. That combination is precisely what the file system's
// clustering performs at allocation time, which is why the paper
// attacks layout rather than scheduling.
func SchedulingStudy(images map[string]*ffs.FileSystem, p disk.Params, fromDay int) ([]SchedStudyRow, error) {
	names := make([]string, 0, len(images))
	for name := range images {
		names = append(names, name)
	}
	sort.Strings(names)
	var out []SchedStudyRow
	for _, name := range names {
		image := images[name]
		fsys := image.Clone()
		files := layout.HotFiles(fsys, fromDay)
		if len(files) == 0 {
			return nil, fmt.Errorf("bench: image %s has no hot files from day %d", name, fromDay)
		}
		total := layout.TotalBytes(files)
		var ext []ffs.Extent
		for _, disc := range []disk.Discipline{disk.FCFS, disk.Elevator, disk.ElevatorCoalesce} {
			d := disk.New(p)
			start := d.Params().Geom.TotalSectors() / 4
			ss := int64(p.Geom.SectorSize)
			q := disk.NewQueue(d, disc)
			for _, f := range files {
				ext = f.AppendDataExtents(ext[:0], fsys.FragsPerBlock())
				for _, e := range ext {
					lba := start + int64(e.Addr)*int64(fsys.P.FragSize)/ss
					q.Submit(lba, e.Frags*fsys.P.FragSize/int(ss), true)
				}
			}
			elapsed := q.Drain()
			out = append(out, SchedStudyRow{
				Image:      name,
				Discipline: disc,
				WriteBps:   float64(total) / elapsed,
			})
		}
	}
	return out, nil
}

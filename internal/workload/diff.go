package workload

import (
	"fmt"
	"math/rand"
	"slices"

	"ffsage/internal/trace"
)

// Diff reconstructs a replayable operation stream from a series of
// nightly snapshots, applying the paper's heuristics (Section 3.1):
//
//   - an inode present in snapshot k+1 but not k was created; its inode
//     change time is taken as the creation time ("files are seldom
//     modified after they are first written" [Ousterhout85]);
//   - an inode present in both with a changed ctime (or size) was
//     modified, treated as a remove-and-rewrite at the new ctime;
//   - an inode present in k but not k+1 was deleted at an unknown time;
//     deletion times are drawn randomly from the range in which the
//     day's other operations occur.
//
// The first snapshot's contents materialize as creations (the paper
// starts from the year's utilization low point on an empty test file
// system). ipg maps inode numbers to source cylinder groups. The rng
// supplies the random deletion times only. Each snapshot must list its
// entries in strictly increasing inode order, as Snapshot.Files
// documents; Diff rejects one that does not.
func Diff(snaps []trace.Snapshot, numCg, ipg int, rng *rand.Rand) (*trace.Workload, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("workload: no snapshots to diff")
	}
	if numCg <= 0 || ipg <= 0 {
		return nil, fmt.Errorf("workload: bad inode geometry %d/%d", numCg, ipg)
	}
	inoCg := func(ino int64) int { return int(ino/int64(ipg)) % numCg }

	var ops []trace.Op
	// Snapshots list files in inode order, so one merge walk over the
	// previous and current lists finds every creation, modification
	// and deletion; deletions come out in inode order, the order their
	// random times are drawn in. Directories are not files here: a
	// directory entry is skipped on both sides.
	var prev []trace.FileMeta
	var dead []int64
	lastDay := 0
	for si, snap := range snaps {
		if si > 0 && snap.Day <= snaps[si-1].Day {
			return nil, fmt.Errorf("workload: snapshots out of order at day %d", snap.Day)
		}
		for i := 1; i < len(snap.Files); i++ {
			if snap.Files[i].Ino <= snap.Files[i-1].Ino {
				return nil, fmt.Errorf("workload: snapshot of day %d not sorted by inode at %d", snap.Day, snap.Files[i].Ino)
			}
		}
		lastDay = snap.Day
		// Track the time range of known operations this interval so
		// random deletion times land amid real activity.
		loSec, hiSec := 9.0*3600, 18.0*3600
		noteTime := func(ctime float64) {
			sec := ctime - float64(snap.Day)*86400
			if sec < 0 || sec >= 86400 {
				return // a creation attributed to an earlier day
			}
			if sec < loSec {
				loSec = sec
			}
			if sec > hiSec {
				hiSec = sec
			}
		}
		dead = dead[:0]
		j := 0 // next unmatched entry of prev
		gone := func(below int64) {
			for ; j < len(prev) && prev[j].Ino < below; j++ {
				if !prev[j].IsDir {
					dead = append(dead, prev[j].Ino)
				}
			}
		}
		for _, f := range snap.Files {
			if f.IsDir {
				continue
			}
			gone(f.Ino)
			var old trace.FileMeta
			existed := false
			if j < len(prev) && prev[j].Ino == f.Ino {
				old, existed = prev[j], !prev[j].IsDir
				j++
			}
			switch {
			case !existed:
				day, sec := splitCTime(f.CTime, snap.Day)
				noteTime(f.CTime)
				ops = append(ops, trace.Op{
					Day: day, Sec: sec, Kind: trace.OpCreate,
					ID: f.Ino, Cg: inoCg(f.Ino), Size: f.Size,
				})
			case old.CTime != f.CTime || old.Size != f.Size:
				day, sec := splitCTime(f.CTime, snap.Day)
				noteTime(f.CTime)
				ops = append(ops, trace.Op{
					Day: day, Sec: sec, Kind: trace.OpRewrite,
					ID: f.Ino, Cg: inoCg(f.Ino), Size: f.Size,
				})
			}
		}
		for ; j < len(prev); j++ {
			if !prev[j].IsDir {
				dead = append(dead, prev[j].Ino)
			}
		}
		for _, ino := range dead {
			sec := loSec + rng.Float64()*(hiSec-loSec)
			ops = append(ops, trace.Op{
				Day: snap.Day, Sec: sec, Kind: trace.OpDelete,
				ID: ino, Cg: inoCg(ino),
			})
		}
		prev = snap.Files
	}
	slices.SortFunc(ops, trace.Op.Compare)
	return &trace.Workload{Days: lastDay + 1, Ops: ops}, nil
}

// splitCTime converts an absolute ctime into (day, sec), clamping into
// the interval that ends at snapDay (a snapshot can only reveal
// operations up to its own day).
func splitCTime(ctime float64, snapDay int) (int, float64) {
	day := int(ctime / 86400)
	if day > snapDay {
		day = snapDay
	}
	if day < 0 {
		day = 0
	}
	sec := ctime - float64(day)*86400
	if sec < 0 {
		sec = 0
	}
	if sec >= 86400 {
		sec = 86399
	}
	return day, sec
}

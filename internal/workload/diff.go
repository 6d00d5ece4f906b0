package workload

import (
	"fmt"
	"math"
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
// documents; Diff rejects one that does not, and one whose day is
// negative or not after the previous snapshot's.
func Diff(snaps []trace.Snapshot, numCg, ipg int, rng *rand.Rand) (*trace.Workload, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("workload: no snapshots to diff")
	}
	d, err := newDiffer(numCg, ipg, rng)
	if err != nil {
		return nil, err
	}
	var ops []trace.Op
	for _, snap := range snaps {
		if ops, err = d.add(ops, snap); err != nil {
			return nil, err
		}
	}
	slices.SortFunc(ops, trace.Op.Compare)
	return &trace.Workload{Days: snaps[len(snaps)-1].Day + 1, Ops: ops}, nil
}

// differ diffs a snapshot series one snapshot at a time: add compares
// each snapshot with the one before it.
type differ struct {
	numCg int
	ipg   int64
	rng   *rand.Rand
	prev  []trace.FileMeta
	last  int // the previous snapshot's day; -1 before the first
	dead  []int64
}

func newDiffer(numCg, ipg int, rng *rand.Rand) (*differ, error) {
	if numCg <= 0 || ipg <= 0 {
		return nil, fmt.Errorf("workload: bad inode geometry %d/%d", numCg, ipg)
	}
	return &differ{numCg: numCg, ipg: int64(ipg), rng: rng, last: -1}, nil
}

func (d *differ) inoCg(ino int64) int { return int(ino/d.ipg) % d.numCg }

// add appends the ops snap reveals, against the snapshot added before
// it, to ops and returns the extended slice. The new ops fall on days
// in [0, snap.Day], in no particular order. Snapshots must come in
// increasing day order, from day 0 on.
func (d *differ) add(ops []trace.Op, snap trace.Snapshot) ([]trace.Op, error) {
	if snap.Day <= d.last {
		return nil, fmt.Errorf("workload: snapshots out of order at day %d", snap.Day)
	}
	for i := 1; i < len(snap.Files); i++ {
		if snap.Files[i].Ino <= snap.Files[i-1].Ino {
			return nil, fmt.Errorf("workload: snapshot of day %d not sorted by inode at %d", snap.Day, snap.Files[i].Ino)
		}
	}
	d.last = snap.Day
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
	// Snapshots list files in inode order, so one merge walk over the
	// previous and current lists finds every creation, modification
	// and deletion; deletions come out in inode order, the order their
	// random times are drawn in. Directories are not files here: a
	// directory entry is skipped on both sides.
	prev := d.prev
	d.dead = d.dead[:0]
	j := 0 // next unmatched entry of prev
	gone := func(below int64) {
		for ; j < len(prev) && prev[j].Ino < below; j++ {
			if !prev[j].IsDir {
				d.dead = append(d.dead, prev[j].Ino)
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
		kind := trace.OpCreate
		switch {
		case !existed:
		case old.CTime != f.CTime || old.Size != f.Size:
			kind = trace.OpRewrite
		default:
			continue
		}
		day, sec := splitCTime(f.CTime, snap.Day)
		noteTime(f.CTime)
		ops = append(ops, trace.Op{
			Day: day, Sec: sec, Kind: kind,
			ID: f.Ino, Cg: d.inoCg(f.Ino), Size: f.Size,
		})
	}
	gone(math.MaxInt64)
	for _, ino := range d.dead {
		sec := loSec + d.rng.Float64()*(hiSec-loSec)
		ops = append(ops, trace.Op{
			Day: snap.Day, Sec: sec, Kind: trace.OpDelete,
			ID: ino, Cg: d.inoCg(ino),
		})
	}
	d.prev = snap.Files
	return ops, nil
}

// day appends the ops of snap, the snapshot of a day a build seals as
// soon as it is diffed, to ops in stream order. They must all fall on
// snap's day, because every earlier day is already sealed; day returns
// an error if one does not.
func (d *differ) day(ops []trace.Op, snap trace.Snapshot) ([]trace.Op, error) {
	start := len(ops)
	ops, err := d.add(ops, snap)
	if err != nil {
		return nil, err
	}
	for _, op := range ops[start:] {
		if op.Day != snap.Day {
			return nil, fmt.Errorf("workload: snapshot of day %d places an op on sealed day %d", snap.Day, op.Day)
		}
	}
	slices.SortFunc(ops[start:], trace.Op.Compare)
	return ops, nil
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

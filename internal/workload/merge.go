package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"ffsage/internal/trace"
)

// Merge integrates short-lived file activity from the NFS trace into a
// snapshot-derived workload, following Section 3.1 of the paper:
//
//   - for each day of the snapshot workload, one trace day is selected
//     at random;
//   - the trace day's directories are matched to the cylinder groups
//     with the most changes that day (busiest trace directory → busiest
//     group);
//   - each directory's operations are time-shifted so they coincide
//     with the peak of activity in the group they join.
//
// Short-lived files receive synthetic negative IDs so they can never
// collide with snapshot-derived inode numbers. The result is a new
// workload; the input is not modified. Merge sorts the whole merged
// stream; a day-at-a-time build merges each day with merger.day
// instead, and the two give the same stream.
func Merge(base *trace.Workload, traceDays []trace.TraceDay, numCg int, rng *rand.Rand) (*trace.Workload, error) {
	m, err := newMerger(traceDays, numCg, rng)
	if err != nil {
		return nil, err
	}
	byDay := make([][]trace.Op, base.Days)
	for _, op := range base.Ops {
		if op.Day >= 0 && int(op.Day) < base.Days {
			byDay[op.Day] = append(byDay[op.Day], op)
		}
	}
	merged := slices.Clone(base.Ops)
	for day, ops := range byDay {
		merged = append(merged, m.shortLived(day, ops)...)
	}
	slices.SortFunc(merged, trace.Op.Compare)
	return &trace.Workload{Days: base.Days, Ops: merged}, nil
}

// merger merges trace days into a base stream one day at a time. The
// rng draws one trace day per day, in day order, and nothing else.
type merger struct {
	traceDays []trace.TraceDay
	numCg     int
	rng       *rand.Rand
	nextID    int64

	// Scratch reused across days.
	acts     []cgAct
	dirFiles map[int][]trace.ShortLivedFile
	dirs     []dirCount
	short    []trace.Op
	sorter   trace.OpSorter
}

// dirCount is a trace directory and its file count on one trace day.
type dirCount struct{ dir, n int }

// cgAct is one group's activity on a base day.
type cgAct struct {
	cg      int16
	ops     int
	meanSec float64
}

func newMerger(traceDays []trace.TraceDay, numCg int, rng *rand.Rand) (*merger, error) {
	if len(traceDays) == 0 {
		return nil, fmt.Errorf("workload: no trace days to merge")
	}
	if numCg <= 0 || numCg > trace.MaxCg {
		return nil, fmt.Errorf("workload: bad group count %d", numCg)
	}
	return &merger{
		traceDays: traceDays, numCg: numCg, rng: rng, nextID: -1,
		acts: make([]cgAct, numCg), dirFiles: map[int][]trace.ShortLivedFile{},
	}, nil
}

// day draws the trace day for base day `day`, whose ops in stream
// order are base, and appends base with the trace day's short-lived
// pairs merged in to out. Only the day's new ops are sorted; one
// linear pass merges them into base.
func (m *merger) day(out []trace.Op, day int, base []trace.Op) []trace.Op {
	return mergeOps(out, base, m.shortLived(day, base))
}

// shortLived draws the trace day for base day `day`, whose ops are
// base, and returns its short-lived pairs, time-shifted onto the day's
// busiest groups, in stream order. The slice is reused by the next
// call.
func (m *merger) shortLived(day int, base []trace.Op) []trace.Op {
	td := m.traceDays[m.rng.Intn(len(m.traceDays))]
	if len(td.Files) == 0 {
		return nil
	}
	// Rank the day's groups by operation count; compute each group's
	// mean operation time as its activity peak.
	acts := m.acts
	for cg := range acts {
		acts[cg] = cgAct{cg: int16(cg)}
	}
	for _, op := range base {
		if op.Cg >= 0 && int(op.Cg) < m.numCg {
			acts[op.Cg].ops++
			acts[op.Cg].meanSec += op.Sec
		}
	}
	for i := range acts {
		if acts[i].ops > 0 {
			acts[i].meanSec /= float64(acts[i].ops)
		} else {
			acts[i].meanSec = 13 * 3600
		}
	}
	slices.SortStableFunc(acts, func(a, b cgAct) int { return cmp.Compare(b.ops, a.ops) })

	// Group the day's files by trace directory and rank the directories
	// by file count, then number. Each directory keeps its slice from
	// earlier days; only the previous day's directories hold files, so
	// only they are emptied.
	for _, r := range m.dirs {
		m.dirFiles[r.dir] = m.dirFiles[r.dir][:0]
	}
	m.dirs = m.dirs[:0]
	for _, f := range td.Files {
		files := m.dirFiles[f.Dir]
		if len(files) == 0 {
			m.dirs = append(m.dirs, dirCount{dir: f.Dir})
		}
		m.dirFiles[f.Dir] = append(files, f)
	}
	for i := range m.dirs {
		m.dirs[i].n = len(m.dirFiles[m.dirs[i].dir])
	}
	slices.SortFunc(m.dirs, func(a, b dirCount) int {
		if c := cmp.Compare(b.n, a.n); c != 0 {
			return c
		}
		return cmp.Compare(a.dir, b.dir)
	})

	short := m.short[:0]
	for rank, r := range m.dirs {
		target := acts[rank%m.numCg]
		files := m.dirFiles[r.dir]
		// Time-shift this directory's activity so its mean lands on the
		// target group's activity peak.
		var mean float64
		for _, f := range files {
			mean += f.CreateSec
		}
		mean /= float64(len(files))
		shift := target.meanSec - mean
		for _, f := range files {
			cs := clampSec(f.CreateSec + shift)
			ds := clampSec(f.DeleteSec + shift)
			if ds <= cs {
				// Keep the delete strictly after the create even at the
				// end-of-day clamp; a Sec marginally past midnight only
				// affects ordering, which is what we want.
				ds = cs + 0.5
			}
			id := m.nextID
			m.nextID--
			short = append(short,
				trace.Op{Day: int32(day), Sec: cs, Kind: trace.OpCreate, ID: id, Cg: target.cg, Size: f.Size, ShortLived: true},
				trace.Op{Day: int32(day), Sec: ds, Kind: trace.OpDelete, ID: id, Cg: target.cg, ShortLived: true},
			)
		}
	}
	m.sorter.Sort(short)
	m.short = short
	return short
}

// mergeOps appends the merge of a and b, each in stream order, to out.
func mergeOps(out, a, b []trace.Op) []trace.Op {
	out = slices.Grow(out, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].Compare(a[i]) < 0 {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

func clampSec(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 86399 {
		return 86399
	}
	return s
}

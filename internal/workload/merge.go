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
// workload; the input is not modified.
func Merge(base *trace.Workload, traceDays []trace.TraceDay, numCg int, rng *rand.Rand) (*trace.Workload, error) {
	if len(traceDays) == 0 {
		return nil, fmt.Errorf("workload: no trace days to merge")
	}
	if numCg <= 0 {
		return nil, fmt.Errorf("workload: bad group count %d", numCg)
	}
	// Index base operations by day: count first, then carve per-day
	// views out of one backing slice instead of growing map values.
	counts := make([]int, base.Days)
	for _, op := range base.Ops {
		if op.Day >= 0 && op.Day < base.Days {
			counts[op.Day]++
		}
	}
	byDay := make([][]trace.Op, base.Days)
	backing := make([]trace.Op, 0, len(base.Ops))
	for day, n := range counts {
		start := len(backing)
		backing = backing[:start+n]
		byDay[day] = backing[start:start:len(backing)]
	}
	for _, op := range base.Ops {
		if op.Day >= 0 && op.Day < base.Days {
			byDay[op.Day] = append(byDay[op.Day], op)
		}
	}
	// Draw every day's trace day up front — the draw order (one per day,
	// empty or not) is part of the deterministic rng sequence — so the
	// merged slice can be sized exactly: two ops per short-lived file.
	tds := make([]trace.TraceDay, base.Days)
	extra := 0
	for day := range tds {
		tds[day] = traceDays[rng.Intn(len(traceDays))]
		extra += 2 * len(tds[day].Files)
	}
	merged := make([]trace.Op, len(base.Ops), len(base.Ops)+extra)
	copy(merged, base.Ops)
	nextID := int64(-1)

	type cgAct struct {
		cg      int
		ops     int
		meanSec float64
	}
	acts := make([]cgAct, numCg)
	dirFiles := map[int][]trace.ShortLivedFile{}
	var dirs []int

	for day := 0; day < base.Days; day++ {
		td := tds[day]
		if len(td.Files) == 0 {
			continue
		}
		// Rank the day's groups by operation count; compute each
		// group's mean operation time as its activity peak.
		for cg := range acts {
			acts[cg] = cgAct{cg: cg}
		}
		for _, op := range byDay[day] {
			if op.Cg >= 0 && op.Cg < numCg {
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

		// Rank trace directories by their op counts and group their
		// files. The map and rank slice are reused across days.
		clear(dirFiles)
		for _, f := range td.Files {
			dirFiles[f.Dir] = append(dirFiles[f.Dir], f)
		}
		dirs = dirs[:0]
		for d := range dirFiles {
			dirs = append(dirs, d)
		}
		slices.SortFunc(dirs, func(a, b int) int {
			if c := cmp.Compare(len(dirFiles[b]), len(dirFiles[a])); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})

		for rank, d := range dirs {
			target := acts[rank%numCg]
			files := dirFiles[d]
			// Time-shift this directory's activity so its mean lands
			// on the target group's activity peak.
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
					// Keep the delete strictly after the create even at
					// the end-of-day clamp; a Sec marginally past
					// midnight only affects ordering, which is what we
					// want.
					ds = cs + 0.5
				}
				id := nextID
				nextID--
				merged = append(merged,
					trace.Op{Day: day, Sec: cs, Kind: trace.OpCreate, ID: id, Cg: target.cg, Size: f.Size, ShortLived: true},
					trace.Op{Day: day, Sec: ds, Kind: trace.OpDelete, ID: id, Cg: target.cg, ShortLived: true},
				)
			}
		}
	}
	slices.SortFunc(merged, trace.Op.Compare)
	return &trace.Workload{Days: base.Days, Ops: merged}, nil
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

// Package aging replays an aging workload against a simulated FFS,
// reproducing Section 3.2 of the paper: one directory is created per
// cylinder group (FFS's directory placement spreads them one per
// group), and every file is created in the directory matching the
// cylinder group its inode occupied on the original system, so each
// group sees the same allocation and deallocation request stream the
// original group did. After each simulated day the aggregate layout
// score is recorded — the data behind Figures 1 and 2.
//
// Replays can carry a fault plan (internal/faults) that injects
// allocation failures and crashes, and can checkpoint their full state
// every K days; ResumeReplay continues from a checkpoint and, because
// images persist the allocator's rotors and statistics, produces the
// byte-identical daily series an uninterrupted run would have.
package aging

import (
	"bytes"
	"context"
	"errors"
	"fmt"

	"ffsage/internal/faults"
	"ffsage/internal/ffs"
	"ffsage/internal/obs"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
)

// Options tune a replay.
type Options struct {
	// CheckEvery runs the file system's consistency checker after
	// every n-th day (0 disables; checks are O(file system size)).
	CheckEvery int
	// Progress, when non-nil, receives a callback after each day.
	Progress func(day int, score float64, util float64)

	// Faults, when non-nil and non-empty, is installed as the
	// allocator's fault hook and polled for crashes at every operation
	// boundary. A crash ends the replay with an error wrapping
	// *faults.Crash; the partial Result (including the possibly-corrupt
	// file system) is still returned for inspection and Repair.
	Faults *faults.Plan

	// CheckpointEvery emits a checkpoint after every k-th completed
	// simulated day (0 disables). Checkpoint must be set when nonzero.
	CheckpointEvery int
	// Checkpoint receives each emitted checkpoint; returning an error
	// aborts the replay.
	Checkpoint func(cp *trace.Checkpoint) error

	// Obs, when non-nil, receives during-replay events on its "run"
	// tracer stream: checkpoints written, injected faults, and crashes,
	// keyed on the simulated day. These describe what happened to *this*
	// run (an interrupted run logs its crash; its resumption does not),
	// so they are intentionally outside the resume-determinism contract;
	// the resume-safe summary lives in PublishResult.
	Obs *obs.Scope

	// Ctx, when non-nil, is polled at every operation and day boundary.
	// Once it is cancelled the replay stops, emits a final checkpoint at
	// the exact cursor when a Checkpoint sink is configured (even with
	// CheckpointEvery zero), and returns an error wrapping
	// ErrInterrupted plus the context's cause. Resuming from that
	// checkpoint produces series byte-identical to an uninterrupted run,
	// which is what lets a daemon drain on SIGTERM without losing or
	// perturbing in-flight work.
	Ctx context.Context
}

// ErrInterrupted reports that a replay stopped because its
// Options.Ctx was cancelled — a graceful interruption with a final
// checkpoint, as opposed to a fault-plan *faults.Crash.
var ErrInterrupted = errors.New("aging: replay interrupted")

// Result is the outcome of a replay.
type Result struct {
	// Fs is the aged file system.
	Fs *ffs.FileSystem
	// LayoutByDay is the aggregate layout score at the end of each day.
	LayoutByDay stats.Series
	// UtilByDay is the utilization at the end of each day.
	UtilByDay stats.Series
	// SkippedOps counts operations that could not be applied (ENOSPC
	// creations, deletes of files lost to earlier skips, injected
	// allocation faults).
	SkippedOps int
	// NoSpaceOps counts creations/rewrites that failed for space.
	NoSpaceOps int
	// FaultedOps counts operations lost to injected allocation faults.
	FaultedOps int
}

// Replay builds an empty file system with the given parameters and
// policy, then applies the workload.
func Replay(p ffs.Params, policy ffs.Policy, wl *trace.Workload, opts Options) (*Result, error) {
	return ReplayStream(p, policy, wl.Stream(), opts)
}

// ReplayStream is Replay over a workload that may still be in the
// making: it applies each day's ops once src has sealed that day, so
// the replay runs beside the build that feeds it. Its Result is the
// one Replay gives on the finished workload.
func ReplayStream(p ffs.Params, policy ffs.Policy, src *trace.Stream, opts Options) (*Result, error) {
	fsys, err := ffs.NewFileSystem(p, policy)
	if err != nil {
		return nil, err
	}
	return replayOn(fsys, src, opts)
}

// ReplayOn applies the workload to an existing (normally empty) file
// system; any plain files on it must be named after workload IDs, as a
// replay names the files it creates.
func ReplayOn(fsys *ffs.FileSystem, wl *trace.Workload, opts Options) (*Result, error) {
	return replayOn(fsys, wl.Stream(), opts)
}

func replayOn(fsys *ffs.FileSystem, src *trace.Stream, opts Options) (*Result, error) {
	// The series start on the first op's day, so wait for one op or
	// for the whole (then empty) stream.
	ops, sealed, err := src.Wait(0)
	for err == nil && len(ops) == 0 && sealed < src.Days() {
		ops, sealed, err = src.Wait(sealed + 1)
	}
	if err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return nil, fmt.Errorf("aging: empty workload")
	}
	st, err := NewStepper(fsys)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Fs:          fsys,
		LayoutByDay: make(stats.Series, 0, src.Days()),
		UtilByDay:   make(stats.Series, 0, src.Days()),
	}
	return replayFrom(st, src, opts, res, 0, int(ops[0].Day))
}

// ResumeReplay continues a checkpointed replay to completion. The
// workload must be the one the checkpoint was taken under (guarded by
// its hash); the produced Result's series are byte-identical to what
// the uninterrupted run would have recorded.
//
// A resumed run does not re-fire the original run's fault plan; pass
// opts.Faults only to inject new faults into the remainder.
func ResumeReplay(policy ffs.Policy, wl *trace.Workload, cp *trace.Checkpoint, opts Options) (*Result, error) {
	if len(wl.Ops) == 0 {
		return nil, fmt.Errorf("aging: empty workload")
	}
	if got := trace.HashWorkload(wl); got != cp.WorkloadHash {
		return nil, fmt.Errorf("aging: checkpoint was taken under a different workload (hash %016x, want %016x)",
			cp.WorkloadHash, got)
	}
	// Day == firstDay-1 is legitimate: a cancellation checkpoint taken
	// before the first day completed carries empty series.
	firstDay := int(wl.Ops[0].Day)
	if cp.Day < firstDay-1 || cp.NextOp > len(wl.Ops) {
		return nil, fmt.Errorf("aging: checkpoint cursor (day %d, op %d) outside workload", cp.Day, cp.NextOp)
	}
	wantDays := cp.Day - firstDay + 1
	if len(cp.LayoutByDay) != wantDays || len(cp.UtilByDay) != wantDays {
		return nil, fmt.Errorf("aging: checkpoint carries %d recorded days, want %d",
			len(cp.LayoutByDay), wantDays)
	}
	fsys, err := ffs.LoadImage(bytes.NewReader(cp.Image), policy)
	if err != nil {
		return nil, fmt.Errorf("aging: loading checkpoint image: %w", err)
	}
	st, err := NewStepper(fsys)
	if err != nil {
		return nil, err
	}
	st.Skipped, st.NoSpace, st.Faulted = int(cp.SkippedOps), int(cp.NoSpaceOps), int(cp.FaultedOps)
	res := &Result{
		Fs:          fsys,
		LayoutByDay: make(stats.Series, 0, wl.Days),
		UtilByDay:   make(stats.Series, 0, wl.Days),
	}
	for k, v := range cp.LayoutByDay {
		res.LayoutByDay = append(res.LayoutByDay, stats.TimePoint{Day: firstDay + k, Value: v})
	}
	for k, v := range cp.UtilByDay {
		res.UtilByDay = append(res.UtilByDay, stats.TimePoint{Day: firstDay + k, Value: v})
	}
	return replayFrom(st, wl.Stream(), opts, res, cp.NextOp, cp.Day+1)
}

// replayFrom is the replay core: it applies src's ops from index
// startOp on through st with the day cursor starting at day, recording
// each completed day into res. It applies a day's ops once src has
// sealed the day, waiting at most once per day for the build. res's op
// counters are the stepper's, as of the return.
func replayFrom(st *Stepper, src *trace.Stream, opts Options, res *Result, startOp, day int) (*Result, error) {
	fsys := st.fsys
	defer func() { res.SkippedOps, res.NoSpaceOps, res.FaultedOps = st.Skipped, st.NoSpace, st.Faulted }()
	if opts.CheckpointEvery > 0 && opts.Checkpoint == nil {
		return nil, fmt.Errorf("aging: CheckpointEvery set without a Checkpoint sink")
	}
	if opts.Faults != nil && !opts.Faults.Empty() {
		fsys.FaultHook = opts.Faults
		defer func() { fsys.FaultHook = nil }()
	}
	var wlHash uint64
	if opts.Checkpoint != nil {
		// A checkpoint names its workload by the hash of the whole
		// stream, so a checkpointing replay waits for the full build.
		wl, err := src.Whole()
		if err != nil {
			return res, err
		}
		wlHash = trace.HashWorkload(wl)
	}
	days := src.Days()
	var runTr *obs.Tracer
	if opts.Obs != nil {
		runTr = opts.Obs.Tracer("run", obs.EventLines)
	}

	// writeCheckpoint persists the replay state at a cursor: lastDay is
	// the last fully completed day (firstDay-1 when none is), nextOp the
	// index of the first operation not yet applied.
	writeCheckpoint := func(lastDay, nextOp int) error {
		var img bytes.Buffer
		if err := fsys.SaveImage(&img); err != nil {
			return fmt.Errorf("aging: day %d checkpoint image: %w", lastDay, err)
		}
		cp := &trace.Checkpoint{
			Day:          lastDay,
			NextOp:       nextOp,
			SkippedOps:   int64(st.Skipped),
			NoSpaceOps:   int64(st.NoSpace),
			FaultedOps:   int64(st.Faulted),
			LayoutByDay:  res.LayoutByDay.Values(),
			UtilByDay:    res.UtilByDay.Values(),
			WorkloadHash: wlHash,
			Image:        img.Bytes(),
		}
		if err := opts.Checkpoint(cp); err != nil {
			return fmt.Errorf("aging: day %d checkpoint: %w", lastDay, err)
		}
		if runTr != nil {
			runTr.Emit(float64(lastDay), "checkpoint",
				obs.I("day", int64(lastDay)), obs.I("next_op", int64(nextOp)))
		}
		return nil
	}

	// interrupted ends a cancelled replay: one final checkpoint at the
	// exact cursor (so a resume loses no applied work), an event on the
	// run stream, and a typed error naming the cause.
	interrupted := func(nextOp int) error {
		if opts.Checkpoint != nil {
			if err := writeCheckpoint(day-1, nextOp); err != nil {
				return err
			}
		}
		if runTr != nil {
			runTr.Emit(float64(day), "interrupted",
				obs.I("day", int64(day)), obs.I("op", int64(nextOp)))
		}
		return fmt.Errorf("%w at op %d (day %d): %v", ErrInterrupted, nextOp, day, context.Cause(opts.Ctx))
	}

	// endDay closes the current simulated day: record the series point,
	// then (on schedule) consistency-check and checkpoint. nextOp is the
	// index of the first operation not yet applied, i.e. the resume
	// cursor a checkpoint taken now must carry.
	endDay := func(nextOp int) error {
		// O(1) per day from the allocator's incremental counters, which
		// Check() and the tests compare against a full rescan.
		score := fsys.LayoutScore()
		util := fsys.Utilization()
		res.LayoutByDay = append(res.LayoutByDay, stats.TimePoint{Day: day, Value: score})
		res.UtilByDay = append(res.UtilByDay, stats.TimePoint{Day: day, Value: util})
		if opts.Progress != nil {
			opts.Progress(day, score, util)
		}
		if opts.CheckEvery > 0 && (day+1)%opts.CheckEvery == 0 {
			if err := fsys.Check(); err != nil {
				return fmt.Errorf("aging: day %d consistency: %w", day, err)
			}
		}
		if opts.CheckpointEvery > 0 && (day+1)%opts.CheckpointEvery == 0 {
			if err := writeCheckpoint(day, nextOp); err != nil {
				return err
			}
		}
		return nil
	}

	ops, sealed, err := src.Wait(0)
	for i := startOp; ; {
		for ; i < len(ops); i++ {
			if opts.Ctx != nil && opts.Ctx.Err() != nil {
				return res, interrupted(i)
			}
			op := ops[i]
			if opDay := int(op.Day); day < opDay {
				for ; day < opDay; day++ {
					if err := endDay(i); err != nil {
						return res, err
					}
				}
				// Take the stream's latest prefix once a day, so an array
				// the build has since outgrown is not kept alive here.
				ops, sealed, _ = src.Wait(0)
			}
			if c := opts.Faults.CrashBefore(i, int(op.Day)); c != nil {
				if c.Torn && st.lastWritten != nil {
					fsys.TearFile(st.lastWritten)
				}
				if runTr != nil {
					runTr.Emit(float64(day), "crash",
						obs.I("day", int64(day)), obs.I("op", int64(i)), obs.B("torn", c.Torn))
				}
				return res, fmt.Errorf("aging: %w", c)
			}
			faulted := st.Faulted
			if err := st.Apply(op); err != nil {
				return res, err
			}
			if st.Faulted != faulted && runTr != nil {
				runTr.Emit(float64(day), "fault", obs.I("day", int64(day)))
			}
		}
		if err != nil || sealed == days {
			break
		}
		ops, sealed, err = src.Wait(sealed + 1)
	}
	if err != nil {
		return res, err
	}
	// Record the in-progress day and pad out idle trailing days. A
	// resume whose checkpoint already covered the final day records
	// nothing more.
	for ; day < days; day++ {
		if opts.Ctx != nil && opts.Ctx.Err() != nil {
			return res, interrupted(len(ops))
		}
		if err := endDay(len(ops)); err != nil {
			return res, err
		}
	}
	return res, nil
}

// GroupDirectories creates (or finds) one directory per cylinder group
// under the root and returns them indexed by cylinder group. It relies
// on ffs_dirpref spreading consecutive new directories across groups
// and verifies the resulting mapping is a bijection.
func GroupDirectories(fsys *ffs.FileSystem) ([]*ffs.File, error) {
	n := fsys.NumCg()
	dirs := make([]*ffs.File, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("cg%02d", i)
		d, ok := fsys.Lookup(fsys.Root(), name)
		if !ok {
			var err error
			d, err = fsys.Mkdir(fsys.Root(), name, 0)
			if err != nil {
				return nil, fmt.Errorf("aging: mkdir %s: %w", name, err)
			}
		}
		cg := fsys.InoToCg(d.Ino)
		if dirs[cg] != nil {
			return nil, fmt.Errorf("aging: directories %s and %s share group %d",
				dirs[cg].Name, d.Name, cg)
		}
		dirs[cg] = d
	}
	for cg, d := range dirs {
		if d == nil {
			return nil, fmt.Errorf("aging: no directory for group %d", cg)
		}
	}
	return dirs, nil
}

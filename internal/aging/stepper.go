package aging

import (
	"errors"
	"fmt"
	"strconv"

	"ffsage/internal/faults"
	"ffsage/internal/ffs"
	"ffsage/internal/trace"
)

// Stepper is the replay cursor: the mutable state one operation stream
// threads through a replay, and the one place that applies an
// operation and classifies its failure. replayFrom drives it with the
// day cursor, checkpoints and fault plan around it; benchmarks and
// tests drive it directly to measure and pin down the steady-state
// per-operation cost. The per-op work is allocation-free: file names
// for recurring workload IDs are formatted once and cached, and File
// objects come from the file system's recycling pool.
type Stepper struct {
	fsys *ffs.FileSystem
	dirs []*ffs.File
	// snap and short map workload IDs to their live files' inode
	// numbers + 1, 0 marking no live file: snap[id] for the
	// snapshot-derived IDs (source inode numbers, ≥ 0) and short[-1-id]
	// for the short-lived ones, which count down from -1. Both are
	// dense, and hold no pointers for the GC to scan.
	snap, short []int32
	// names caches the decimal form of snapshot-derived (non-negative)
	// workload IDs, which recur across delete/recreate and rewrite
	// cycles. Short-lived files carry unique negative IDs that are never
	// reused, so caching them would only grow the map.
	names map[int64]string
	// lastWritten is the most recently created file, the candidate for
	// a torn write at a crash. It is cleared before that file is
	// deleted: once recycled, the pointer may be handed to an unrelated
	// create, and a stale reference would tear the wrong file.
	lastWritten *ffs.File

	Skipped int // ops absorbed without effect (lost deletes, ENOSPC, injected faults)
	NoSpace int // the subset of Skipped that failed for space/inodes
	Faulted int // the subset of Skipped lost to injected allocation faults
}

// NewStepper prepares fsys for op application: the per-group
// directories are created (or found), and the live-file index is
// rebuilt from file names — the replayer names every file it creates
// after its workload ID, so an empty file system yields an empty index
// and a checkpointed one its live files.
func NewStepper(fsys *ffs.FileSystem) (*Stepper, error) {
	dirs, err := GroupDirectories(fsys)
	if err != nil {
		return nil, err
	}
	s := &Stepper{fsys: fsys, dirs: dirs, names: make(map[int64]string)}
	for _, f := range fsys.Files() {
		if f.IsDir {
			continue
		}
		id, err := strconv.ParseInt(f.Name, 10, 64)
		if err != nil || !inReach(id) {
			return nil, fmt.Errorf("aging: file %q is not a workload file", f.Name)
		}
		if s.lookup(id) != nil {
			return nil, fmt.Errorf("aging: two files for id %d", id)
		}
		s.record(id, f)
	}
	return s, nil
}

// maxID bounds workload IDs to (-maxID, maxID), so that a stray ID
// cannot grow the ID tables past 64 MiB each.
const maxID = 1 << 24

func inReach(id int64) bool { return id > -maxID && id < maxID }

// table returns the ID table that holds id, and id's index in it.
func (s *Stepper) table(id int64) (*[]int32, int) {
	if id < 0 {
		return &s.short, int(-1 - id)
	}
	return &s.snap, int(id)
}

// lookup returns id's live file, or nil.
func (s *Stepper) lookup(id int64) *ffs.File {
	t, i := s.table(id)
	if i >= len(*t) || (*t)[i] == 0 {
		return nil
	}
	return s.fsys.FileByIno(int((*t)[i]) - 1)
}

// record makes f id's live file.
func (s *Stepper) record(id int64, f *ffs.File) {
	t, i := s.table(id)
	if i >= len(*t) {
		*t = append(*t, make([]int32, i+1-len(*t))...)
	}
	(*t)[i] = int32(f.Ino + 1)
}

// drop clears the entry of id, whose file lookup found.
func (s *Stepper) drop(id int64) {
	t, i := s.table(id)
	(*t)[i] = 0
}

// Apply applies one operation, absorbing the failures a replay absorbs
// — allocation exhaustion, as in the paper's 90%-full runs, injected
// allocation faults, and deletes of files lost to earlier skips — into
// the Skipped, NoSpace and Faulted counters. Any other failure is
// returned.
func (s *Stepper) Apply(op trace.Op) error {
	if op.Cg < 0 || int(op.Cg) >= len(s.dirs) {
		return fmt.Errorf("aging: op cg %d outside [0,%d)", op.Cg, len(s.dirs))
	}
	if !inReach(op.ID) {
		return fmt.Errorf("aging: op id %d outside (-%d,%d)", op.ID, maxID, maxID)
	}
	err := s.applyOp(op)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ffs.ErrNoSpace) || errors.Is(err, ffs.ErrNoInodes):
		s.NoSpace++
	case errors.Is(err, faults.ErrInjected):
		s.Faulted++
	default:
		return err
	}
	s.Skipped++
	return nil
}

func (s *Stepper) name(id int64) string {
	if id < 0 {
		return strconv.FormatInt(id, 10)
	}
	n, ok := s.names[id]
	if !ok {
		n = strconv.FormatInt(id, 10)
		s.names[id] = n
	}
	return n
}

// forget drops the tear-tracking reference if it points at f, which is
// about to be deleted (and possibly recycled).
func (s *Stepper) forget(f *ffs.File) {
	if s.lastWritten == f {
		s.lastWritten = nil
	}
}

// applyOp applies one workload operation. A delete of a file lost to
// an earlier skip counts as a skip without error. Allocation failures
// come back wrapped; Apply classifies them with errors.Is.
func (s *Stepper) applyOp(op trace.Op) error {
	dir := s.dirs[op.Cg]
	switch op.Kind {
	case trace.OpCreate:
		if s.lookup(op.ID) != nil {
			return fmt.Errorf("aging: create of live id %d", op.ID)
		}
		f, err := s.fsys.CreateFile(dir, s.name(op.ID), op.Size, int(op.Day))
		if err != nil {
			return fmt.Errorf("aging: create %d: %w", op.ID, err)
		}
		s.record(op.ID, f)
		s.lastWritten = f
		return nil
	case trace.OpDelete:
		f := s.lookup(op.ID)
		if f == nil {
			s.Skipped++
			return nil
		}
		s.forget(f)
		if err := s.fsys.Delete(f); err != nil {
			return fmt.Errorf("aging: delete %d: %w", op.ID, err)
		}
		s.drop(op.ID)
		return nil
	case trace.OpRewrite:
		// The paper's modify heuristic: remove (or truncate to zero) and
		// rewrite. The dying file's name (the formatted ID) is reused
		// rather than formatted again.
		f := s.lookup(op.ID)
		name := ""
		if f != nil {
			name = f.Name
			s.forget(f)
			if err := s.fsys.Delete(f); err != nil {
				return fmt.Errorf("aging: rewrite-delete %d: %w", op.ID, err)
			}
			s.drop(op.ID)
		} else {
			name = s.name(op.ID)
		}
		f, err := s.fsys.CreateFile(dir, name, op.Size, int(op.Day))
		if err != nil {
			return fmt.Errorf("aging: rewrite %d: %w", op.ID, err)
		}
		s.record(op.ID, f)
		s.lastWritten = f
		return nil
	default:
		return fmt.Errorf("aging: op kind %v", op.Kind)
	}
}

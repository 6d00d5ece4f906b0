// Package trace defines the data that flows through the aging pipeline
// — file-system snapshots, NFS-style short-lived file traces, and the
// replayable operation log — together with compact binary and
// human-readable text serializations for all of them.
//
// These are the reproduction's stand-ins for the paper's two source
// data sets: the nightly Harvard file-system snapshots [Smith94] and
// the Network Appliance NFS traces [Blackwell95]. See DESIGN.md §2 for
// the substitution argument.
package trace

import "fmt"

// OpKind is a replayable file operation.
type OpKind uint8

const (
	// OpCreate creates a file of Size bytes.
	OpCreate OpKind = iota + 1
	// OpDelete removes the file.
	OpDelete
	// OpRewrite models the paper's modify heuristic: the file is
	// removed (or truncated to zero) and rewritten at Size bytes.
	OpRewrite
)

func (k OpKind) String() string {
	switch k {
	case OpCreate:
		return "create"
	case OpDelete:
		return "delete"
	case OpRewrite:
		return "rewrite"
	default:
		return fmt.Sprintf("OpKind(%d)", uint8(k))
	}
}

// Op is one operation in the aging workload. Time is expressed as a day
// number plus seconds within the day; ordering is (Day, Sec, ID, Kind),
// then the remaining fields, as Compare defines it.
//
// Op is packed into 32 bytes: the three 8-byte fields first, then Day
// and Cg narrowed to what a workload can hold (MaxDays and MaxCg; the
// codecs reject anything wider), sharing the last word with Kind and
// ShortLived. The workload build's sorts and merges move every op many
// times, and the cache holds whole streams.
type Op struct {
	Sec float64
	// ID identifies the file across operations. For snapshot-derived
	// files it encodes the original system's inode number; short-lived
	// files carry synthetic IDs. IDs are unique per live file.
	ID int64
	// Size in bytes; meaningful for OpCreate and OpRewrite.
	Size int64
	Day  int32
	// Cg is the cylinder group the file occupied on the original
	// system (ino / ipg there); the replayer routes the file to the
	// matching per-group directory, per Section 3.2 of the paper.
	Cg   int16
	Kind OpKind
	// ShortLived marks operations merged in from the NFS trace.
	ShortLived bool
}

// Compare orders ops by (Day, Sec, ID, Kind), returning -1, 0 or +1.
// ID and Kind break ties between coincident timestamps, so a
// same-instant create/delete pair of one ID replays create-first.
// Size, Cg and ShortLived (false first) break any tie left, so the
// order is total: Compare returns 0 only for identical ops, and a
// sorted stream is the same whichever sort algorithm produced it.
// Sort streams with an OpSorter, which gives exactly the order of
// slices.SortFunc(ops, trace.Op.Compare) in linear time.
func (a Op) Compare(b Op) int {
	switch {
	case a.Day != b.Day:
		return order(a.Day < b.Day)
	case a.Sec != b.Sec:
		return order(a.Sec < b.Sec)
	case a.ID != b.ID:
		return order(a.ID < b.ID)
	case a.Kind != b.Kind:
		return order(a.Kind < b.Kind)
	case a.Size != b.Size:
		return order(a.Size < b.Size)
	case a.Cg != b.Cg:
		return order(a.Cg < b.Cg)
	case a.ShortLived != b.ShortLived:
		return order(b.ShortLived)
	}
	return 0
}

// order maps "a sorts first" to Compare's -1 and its negation to +1;
// Compare calls it only once it has found a field that differs.
func order(less bool) int {
	if less {
		return -1
	}
	return 1
}

// FileMeta is one file's record in a nightly snapshot: what [Smith94]
// captured (inode number, change time, type, size; we do not need the
// block list on the source side).
type FileMeta struct {
	Ino   int64
	Size  int64
	CTime float64 // inode change time, absolute seconds since day 0
	IsDir bool
}

// Snapshot is the state of the source file system at the end of a day.
type Snapshot struct {
	Day   int
	Files []FileMeta // sorted by Ino
}

// ShortLivedFile is one same-day create/delete pair extracted from the
// NFS trace: the paper's unit for augmenting the snapshot workload.
type ShortLivedFile struct {
	Dir       int // directory key within the trace day
	CreateSec float64
	DeleteSec float64
	Size      int64
}

// TraceDay is the short-lived file activity of one traced day.
type TraceDay struct {
	Files []ShortLivedFile
}

// Workload is a complete replayable aging workload.
type Workload struct {
	Days int
	Ops  []Op // in Compare order; both readers reject a stream that is not
}

// Stats summarizes a workload the way the paper reports it (Section
// 3.1: "approximately 800,000 file operations that write 48.6 gigabytes
// of data").
type Stats struct {
	Ops          int
	Creates      int
	Deletes      int
	Rewrites     int
	ShortLived   int
	BytesWritten int64
}

// Summarize computes workload statistics.
func (w *Workload) Summarize() Stats {
	var s Stats
	s.Ops = len(w.Ops)
	for _, op := range w.Ops {
		switch op.Kind {
		case OpCreate:
			s.Creates++
			s.BytesWritten += op.Size
		case OpDelete:
			s.Deletes++
		case OpRewrite:
			s.Rewrites++
			s.BytesWritten += op.Size
		}
		if op.ShortLived {
			s.ShortLived++
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%d ops (%d create, %d delete, %d rewrite; %d short-lived), %.1f GB written",
		s.Ops, s.Creates, s.Deletes, s.Rewrites, s.ShortLived,
		float64(s.BytesWritten)/(1<<30))
}

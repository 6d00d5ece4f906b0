package disk

import (
	"fmt"
	"sort"
)

// Discipline is a request-queue scheduling policy.
type Discipline int

// The disciplines the era's drivers used.
const (
	// FCFS dispatches requests in arrival order.
	FCFS Discipline = iota
	// Elevator sorts the queue by ascending disk address and services
	// it in one sweep (the BSD disksort(9) discipline, simplified to a
	// single batch).
	Elevator
	// ElevatorCoalesce additionally merges physically adjacent
	// requests of the same kind before dispatch — the driver-level
	// sibling of the file system's clustering.
	ElevatorCoalesce
)

func (d Discipline) String() string {
	switch d {
	case FCFS:
		return "fcfs"
	case Elevator:
		return "elevator"
	case ElevatorCoalesce:
		return "elevator+coalesce"
	default:
		return fmt.Sprintf("Discipline(%d)", int(d))
	}
}

// Queue models a driver request queue in front of a disk. Requests
// accumulate with Submit (no simulated time passes) and execute with
// Drain, which dispatches them in the discipline's order and returns
// the elapsed time. It lets the benchmarks separate what good *layout*
// buys (the paper's subject) from what good *scheduling* buys.
type Queue struct {
	disk    *Disk
	disc    Discipline
	pending []queuedReq
}

type queuedReq struct {
	seq   int
	lba   int64
	nsect int
	write bool
}

// NewQueue returns an empty queue over d.
func NewQueue(d *Disk, disc Discipline) *Queue {
	if disc < FCFS || disc > ElevatorCoalesce {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("disk: unknown discipline %d", disc))
	}
	return &Queue{disk: d, disc: disc}
}

// Len returns the number of pending requests.
func (q *Queue) Len() int { return len(q.pending) }

// Submit enqueues a request; lba/nsect follow Disk.Read conventions.
func (q *Queue) Submit(lba int64, nsect int, write bool) {
	if nsect <= 0 || lba < 0 || lba+int64(nsect) > q.disk.total {
		//lint:ignore ffsvet/nopanic precondition panic: rejects a caller bug (API misuse), never reachable from replayed disk state
		panic(fmt.Sprintf("disk: bad queued request [%d,%d)", lba, lba+int64(nsect)))
	}
	q.pending = append(q.pending, queuedReq{seq: len(q.pending), lba: lba, nsect: nsect, write: write})
}

// Drain dispatches every pending request in the discipline's order and
// returns the total elapsed time in seconds. The queue is empty
// afterwards.
func (q *Queue) Drain() float64 {
	reqs := q.pending
	q.pending = nil
	switch q.disc {
	case FCFS:
		// Arrival order.
	case Elevator, ElevatorCoalesce:
		sort.Slice(reqs, func(i, j int) bool {
			if reqs[i].lba != reqs[j].lba {
				return reqs[i].lba < reqs[j].lba
			}
			return reqs[i].seq < reqs[j].seq
		})
		if q.disc == ElevatorCoalesce {
			reqs = coalesce(reqs)
		}
	}
	elapsed := 0.0
	for _, r := range reqs {
		if r.write {
			elapsed += q.disk.Write(r.lba, r.nsect)
		} else {
			elapsed += q.disk.Read(r.lba, r.nsect)
		}
	}
	return elapsed
}

// coalesce merges sorted, physically adjacent same-kind requests; the
// disk still splits merged requests at its transfer limit.
func coalesce(sorted []queuedReq) []queuedReq {
	out := sorted[:0]
	for _, r := range sorted {
		n := len(out)
		if n > 0 && out[n-1].write == r.write &&
			out[n-1].lba+int64(out[n-1].nsect) == r.lba {
			out[n-1].nsect += r.nsect
			continue
		}
		out = append(out, r)
	}
	return out
}

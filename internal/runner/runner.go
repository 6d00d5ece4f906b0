// Package runner schedules the experiment harness's independent jobs —
// policy pairs, ablation arms, sequential-sweep size points — across a
// bounded worker pool. Every simulation in this repository is a pure
// function of its inputs, so arms may execute in any order and on any
// number of workers without changing a single reported number; the
// Group guarantees it by collecting results in submission order and
// surfacing the lowest-submitted error, independent of completion
// order. cmd/repro's -j flag sets the process-wide worker bound.
//
// Each job records wall-clock telemetry (and an approximate allocation
// figure); when capture is enabled (repro does so at startup) finished
// groups append their stats to a process-wide log that the timing
// footer prints. This package is the one home of that log: wall-clock
// readings differ run to run, so they never reach internal/obs, whose
// registries hold only simulated-time state.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// workers is the process-wide worker bound; 0 means GOMAXPROCS.
var workers atomic.Int64

// SetWorkers sets the process-wide worker bound for subsequently
// created Groups (cmd/repro's -j). n <= 0 restores the default.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers returns the current worker bound.
func Workers() int {
	if n := int(workers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Stat is one finished job's or stage's wall-clock telemetry.
type Stat struct {
	Label string
	Wall  time.Duration
	// AllocBytes is the process-wide heap allocation delta observed
	// while the job ran. With concurrent jobs it includes their
	// allocations too, so read it as an upper bound.
	AllocBytes uint64
	Err        error
}

// telemetry is the process-wide job and stage log.
var telemetry struct {
	sync.Mutex
	on           bool
	jobs, stages []Stat
}

// CaptureTelemetry enables (or disables) the process-wide job and
// stage log and clears it. While disabled — the default — finished
// groups and stages are not logged, so long-running test processes do
// not accumulate history.
func CaptureTelemetry(on bool) {
	telemetry.Lock()
	defer telemetry.Unlock()
	telemetry.on = on
	telemetry.jobs, telemetry.stages = nil, nil
}

// record appends stats to one of the logs while capture is on.
func record(log *[]Stat, stats ...Stat) {
	telemetry.Lock()
	defer telemetry.Unlock()
	if telemetry.on {
		*log = append(*log, stats...)
	}
}

// snapshot returns a copy of one of the logs.
func snapshot(log *[]Stat) []Stat {
	telemetry.Lock()
	defer telemetry.Unlock()
	return append([]Stat(nil), *log...)
}

// Telemetry returns a copy of the captured job stats, in the order the
// groups finished and, within a group, in submission order.
func Telemetry() []Stat { return snapshot(&telemetry.jobs) }

// Group runs jobs on a bounded worker pool. Submit with Go, then call
// Wait exactly once. The zero value is unusable; construct with New.
//
// Nested groups (a job that itself creates a Group) each get their own
// worker bound rather than sharing one global pool: a shared pool
// would deadlock when every outer job held a slot while waiting for
// inner jobs, so the harness accepts bounded oversubscription instead.
type Group struct {
	ctx     context.Context
	cancel  context.CancelFunc
	sem     chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	stats   []Stat
	nextIdx int
}

// New returns a Group bounded by the process-wide worker count whose
// jobs observe ctx (nil means Background). The first job error cancels
// the group's context, so queued jobs that honour it are skipped.
func New(ctx context.Context) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	gctx, cancel := context.WithCancel(ctx)
	return &Group{ctx: gctx, cancel: cancel, sem: make(chan struct{}, Workers())}
}

// Go submits one job. fn runs on some worker once a slot frees up; if
// the group was cancelled first (an earlier job failed), fn is skipped
// and the job records the cancellation error. Results belong in
// caller-owned slots captured by the closure — the Group only carries
// errors and telemetry — which is what makes result ordering
// independent of completion order.
func (g *Group) Go(label string, fn func(context.Context) error) {
	g.mu.Lock()
	idx := g.nextIdx
	g.nextIdx++
	g.stats = append(g.stats, Stat{Label: label})
	g.mu.Unlock()

	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.sem <- struct{}{}
		defer func() { <-g.sem }()

		st := Stat{Label: label}
		if err := g.ctx.Err(); err != nil {
			st.Err = err
		} else {
			st = measure(label, func() error { return fn(g.ctx) })
		}
		g.mu.Lock()
		g.stats[idx] = st
		g.mu.Unlock()
		if st.Err != nil {
			g.cancel()
		}
	}()
}

// measure runs fn and returns its wall time, its error, and the
// process-wide allocation delta seen while it ran.
func measure(label string, fn func() error) Stat {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	return Stat{Label: label, Wall: wall, AllocBytes: m1.TotalAlloc - m0.TotalAlloc, Err: err}
}

// Time runs fn on the calling goroutine as a stage — work outside any
// Group, such as a workload build — and, while telemetry capture is
// on, logs its stats for the timing footer.
// Stages are not jobs: Telemetry never sees them.
func Time(label string, fn func() error) error {
	st := measure(label, fn)
	record(&telemetry.stages, st)
	return st.Err
}

// Stages returns a copy of the captured stage log, in the order the
// stages finished.
func Stages() []Stat { return snapshot(&telemetry.stages) }

// Wait blocks until every submitted job finished (or was skipped),
// then returns the per-job stats in submission order and the error of
// the lowest-submitted failed job — a deterministic choice no matter
// which job failed first on the clock. Skipped-job cancellation errors
// are only reported when no real error exists.
func (g *Group) Wait() ([]Stat, error) {
	g.wg.Wait()
	g.cancel()
	var firstErr error
	var firstCancel error
	for _, st := range g.stats {
		if st.Err == nil {
			continue
		}
		if st.Err == context.Canceled && st.Wall == 0 {
			if firstCancel == nil {
				firstCancel = st.Err
			}
			continue
		}
		firstErr = st.Err
		break
	}
	if firstErr == nil {
		firstErr = firstCancel
	}
	record(&telemetry.jobs, g.stats...)
	return g.stats, firstErr
}

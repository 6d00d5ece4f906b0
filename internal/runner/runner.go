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
// footer prints.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ffsage/internal/obs"
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

// Stat is one finished job's telemetry. It is the obs registry's job
// record: the process-wide log lives in obs.Default, so commands that
// snapshot metrics and commands that print the timing footer read from
// one place. Wall-clock stats stay out of metrics snapshots by
// construction (obs.Registry.WriteMetrics excludes jobs).
type Stat = obs.JobStat

// CaptureTelemetry enables (or disables) the process-wide telemetry
// log and clears it. While disabled — the default — Wait discards
// job stats after returning them, so long-running test processes do
// not accumulate history.
func CaptureTelemetry(on bool) { obs.Default.CaptureJobs(on) }

// Telemetry returns a copy of the captured job stats, in the order the
// groups finished and, within a group, in submission order.
func Telemetry() []Stat { return obs.Default.Jobs() }

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
func New(ctx context.Context) *Group { return NewWithWorkers(ctx, Workers()) }

// NewWithWorkers returns a Group with an explicit worker bound
// (n <= 0 means the process-wide count).
func NewWithWorkers(ctx context.Context, n int) *Group {
	if ctx == nil {
		ctx = context.Background()
	}
	if n <= 0 {
		n = Workers()
	}
	gctx, cancel := context.WithCancel(ctx)
	return &Group{ctx: gctx, cancel: cancel, sem: make(chan struct{}, n)}
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

// Time runs fn on the calling goroutine as a serial stage — work the
// caller waits for outside any Group, such as a workload build — and,
// while telemetry capture is on, logs its stats for the timing footer.
// Stages are not jobs: Telemetry and the runner_jobs metrics never see
// them.
func Time(label string, fn func() error) error {
	st := measure(label, fn)
	obs.Default.AppendStage(st)
	return st.Err
}

// Stages returns a copy of the captured stage log, in the order the
// stages finished.
func Stages() []Stat { return obs.Default.Stages() }

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
	obs.Default.AppendJobs(g.stats)
	publishOps(g.stats)
	return g.stats, firstErr
}

// runnerSecondsBounds buckets job wall time from milliseconds to
// minutes — wide enough for both sweep points and whole aging runs.
var runnerSecondsBounds = []float64{0.001, 0.01, 0.1, 1, 10, 60, 600}

// publishOps records finished jobs' wall-clock telemetry in the
// process-wide operational registry (obs.Ops()), where the daemon's
// /metrics endpoint reads it. This is the one place runner touches
// wall-time metrics; the deterministic registry never sees them.
func publishOps(stats []Stat) {
	ops := obs.Ops()
	done := ops.Counter("runner_jobs_total")
	failed := ops.Counter("runner_jobs_failed_total")
	h := ops.Histogram("runner_job_seconds", runnerSecondsBounds)
	for _, st := range stats {
		done.Inc()
		if st.Err != nil {
			failed.Inc()
		}
		s := st.Wall.Seconds()
		h.Observe(s, s)
	}
}

// Run is the common fan-out: invoke fn(i) for i in [0, n) on the pool
// and return the first error (by submission order). label names job i
// for telemetry; nil labels jobs "job".
func Run(ctx context.Context, n int, label func(i int) string, fn func(ctx context.Context, i int) error) error {
	g := New(ctx)
	for i := 0; i < n; i++ {
		name := "job"
		if label != nil {
			name = label(i)
		}
		i := i
		g.Go(name, func(ctx context.Context) error { return fn(ctx, i) })
	}
	_, err := g.Wait()
	return err
}

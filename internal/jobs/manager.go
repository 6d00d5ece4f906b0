package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ffsage/internal/aging"
	"ffsage/internal/faults"
	"ffsage/internal/obs"
	"ffsage/internal/queue"
	"ffsage/internal/runner"
	"ffsage/internal/trace"
)

// Failure-cause prefixes. A dead-lettered job's Cause always starts
// with one of these, so operators (and tests) can classify failures
// without parsing prose.
const (
	// CauseSpec marks a job whose stored spec no longer validates — a
	// deterministic failure no retry can fix.
	CauseSpec = "spec"
	// CauseTimeout marks attempts that exceeded the spec's timeout_sec.
	CauseTimeout = "timeout"
	// CauseReplay marks a hard replay error (corrupt checkpoint image,
	// inconsistent file system) — also deterministic.
	CauseReplay = "replay"
	// CauseArtifacts marks a failure writing result artifacts —
	// environmental (disk full, permissions) and therefore retried.
	CauseArtifacts = "artifacts"
)

// ErrBusy is returned by Submit when the pending queue is at its bound;
// the HTTP layer translates it to 429 + Retry-After.
var ErrBusy = errors.New("jobs: queue full, retry later")

// Options configure a Manager. The zero value of every field has a
// usable default except Dir, which is required.
type Options struct {
	// Dir is the daemon state root: Dir/queue.wal plus one
	// Dir/jobs/<id>/ directory per job (checkpoint and artifacts).
	Dir string
	// Queue overrides the default WAL queue at Dir/queue.wal; tests
	// pass queue.NewMemory().
	Queue queue.Queue
	// Workers bounds concurrently running jobs (default 2).
	Workers int
	// MaxPending is the load-shedding bound on queued jobs (default 64).
	MaxPending int
	// BackoffBase and BackoffMax shape the retry schedule (defaults
	// 50ms and 2s; see Backoff).
	BackoffBase, BackoffMax time.Duration
	// Poll is the dispatcher's idle wakeup interval (default 250ms);
	// submissions and retries wake it immediately.
	Poll time.Duration
	// OnCrash is invoked when a job's fault plan simulates a process
	// crash. The job is left Running and untouched in the queue —
	// exactly the durable state a real kill at that instant would leave
	// — so the caller decides whether to die for real (cmd/agesrv
	// exits) or to hand the state directory to a fresh Manager (the
	// crash tests).
	OnCrash func(id string, c *faults.Crash)
	// Logf receives operational log lines (default: discarded).
	Logf func(format string, args ...any)
	// Ops receives wall-clock operational telemetry: lifecycle counters
	// (submitted/shed/retried/dead/completed/recovered jobs) that the
	// daemon's /metrics endpoint exposes. Defaults to obs.Ops(), the
	// process-wide operational registry; tests pass a fresh one. This
	// registry is deliberately unreachable from checkpoint and artifact
	// paths — ffsvet's snapshotpure analyzer enforces the split.
	Ops *obs.Registry
}

// Manager owns the daemon's job lifecycle: it recovers and resumes
// in-flight jobs at startup, dispatches pending jobs to a bounded
// runner pool, and applies the retry/dead-letter policy. Construct
// with Open, stop with Close.
type Manager struct {
	opts Options
	q    queue.Queue
	dir  string
	ops  *obs.Registry

	ctx    context.Context
	cancel context.CancelFunc
	pool   *runner.Group
	slots  chan struct{}
	wake   chan struct{}

	resumeDone   chan struct{}
	dispatchDone chan struct{}

	liveMu sync.Mutex
	live   map[string]*obs.Registry

	// submitMu serializes Submit's ID assignment with its enqueue, so
	// concurrent ID-less submissions never pick the same fresh ID.
	submitMu sync.Mutex

	reqID atomic.Int64 // HTTP middleware's request-id generator

	closeOnce sync.Once
	closeErr  error
}

// Open starts a Manager over the state in opts.Dir. Jobs the previous
// process left Running are re-dispatched first, as resumptions: they
// continue from their latest checkpoint, never re-fire their fault
// plan, and are acknowledged exactly once.
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("jobs: Options.Dir is required")
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.MaxPending <= 0 {
		opts.MaxPending = 64
	}
	if opts.Poll <= 0 {
		opts.Poll = 250 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if opts.Ops == nil {
		opts.Ops = obs.Ops()
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, "jobs"), 0o755); err != nil {
		return nil, fmt.Errorf("jobs: state dir: %w", err)
	}
	q := opts.Queue
	if q == nil {
		var err error
		q, err = queue.Open(filepath.Join(opts.Dir, "queue.wal"))
		if err != nil {
			return nil, err
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:         opts,
		q:            q,
		dir:          opts.Dir,
		ops:          opts.Ops,
		ctx:          ctx,
		cancel:       cancel,
		pool:         runner.NewWithWorkers(ctx, opts.Workers),
		slots:        make(chan struct{}, opts.Workers),
		wake:         make(chan struct{}, 1),
		resumeDone:   make(chan struct{}),
		dispatchDone: make(chan struct{}),
		live:         map[string]*obs.Registry{},
	}

	// Recovery: the Running records are exactly the jobs the previous
	// process held when it died. Dispatch them before any pending work.
	resume := q.Running()
	if n := len(resume); n > 0 {
		m.opts.Logf("jobs: recovering %d in-flight job(s)", n)
		m.ops.Counter("agesrv_jobs_recovered_total").Add(int64(n))
	}
	go func() {
		defer close(m.resumeDone)
		for _, rec := range resume {
			if !m.acquireSlot() {
				return
			}
			m.spawn(rec, true)
		}
	}()
	go m.dispatch()
	return m, nil
}

// Queue exposes the underlying queue for read-only inspection (the
// HTTP layer's Get/List).
func (m *Manager) Queue() queue.Queue { return m.q }

// Submit validates and enqueues one job, returning its ID. It applies
// load shedding (ErrBusy) before touching the queue; duplicate IDs
// surface as queue.ErrExists.
func (m *Manager) Submit(sp *Spec) (string, error) {
	if err := sp.Normalize(); err != nil {
		return "", err
	}
	if m.q.Depth() >= m.opts.MaxPending {
		m.ops.Counter("agesrv_jobs_shed_total").Inc()
		return "", fmt.Errorf("%w (%d pending)", ErrBusy, m.q.Depth())
	}
	m.submitMu.Lock()
	defer m.submitMu.Unlock()
	if sp.ID == "" {
		sp.ID = m.freshID()
	}
	b, err := json.Marshal(sp)
	if err != nil {
		return "", fmt.Errorf("jobs: encoding spec: %w", err)
	}
	if err := m.q.Enqueue(sp.ID, b); err != nil {
		return "", err
	}
	m.ops.Counter("agesrv_jobs_submitted_total").Inc()
	m.wakeUp()
	return sp.ID, nil
}

// freshID returns the lowest job-NNNNNN not present in the queue.
func (m *Manager) freshID() string {
	used := map[string]bool{}
	for _, r := range m.q.List() {
		used[r.ID] = true
	}
	//lint:ignore ffsvet/ctxloop bounded: at most len(used)+1 iterations before an unused ID is found
	for i := 1; ; i++ {
		id := fmt.Sprintf("job-%06d", i)
		if !used[id] {
			return id
		}
	}
}

// Close drains the Manager gracefully: dispatching stops, running jobs
// are interrupted and write a final checkpoint at their exact operation
// cursor, and their queue records stay Running — the durable statement
// that a restart must resume them. Pending and dead jobs persist as-is.
func (m *Manager) Close() error {
	m.closeOnce.Do(func() {
		m.cancel()
		<-m.dispatchDone
		<-m.resumeDone
		// Workers observe the cancelled context at the next operation
		// boundary, checkpoint, and return without resolving their job.
		if _, err := m.pool.Wait(); err != nil && !errors.Is(err, context.Canceled) {
			m.opts.Logf("jobs: draining pool: %v", err)
		}
		m.closeErr = m.q.Close()
	})
	return m.closeErr
}

// wakeUp nudges the dispatcher without blocking.
func (m *Manager) wakeUp() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// acquireSlot blocks until a worker slot frees up; false on shutdown.
func (m *Manager) acquireSlot() bool {
	select {
	case m.slots <- struct{}{}:
		return true
	case <-m.ctx.Done():
		return false
	}
}

// spawn hands one claimed record to the pool. The worker owns the slot
// and always returns nil: job failures are queue-state transitions, not
// pool errors, so one bad job never cancels its siblings.
func (m *Manager) spawn(rec queue.Record, resumed bool) {
	m.pool.Go("job:"+rec.ID, func(ctx context.Context) error {
		defer func() { <-m.slots }()
		m.run(ctx, rec, resumed)
		return nil
	})
}

// dispatch is the Manager's main loop: claim pending jobs whenever a
// worker slot is free, park otherwise.
func (m *Manager) dispatch() {
	defer close(m.dispatchDone)
	select {
	case <-m.resumeDone:
	case <-m.ctx.Done():
		return
	}
	for {
		for m.ctx.Err() == nil {
			if !m.acquireSlot() {
				return
			}
			rec, ok, err := m.q.Dequeue()
			if !ok || err != nil {
				<-m.slots
				if err != nil {
					m.opts.Logf("jobs: dequeue: %v", err)
				}
				break
			}
			m.spawn(rec, false)
		}
		select {
		case <-m.ctx.Done():
			return
		case <-m.wake:
		case <-time.After(m.opts.Poll):
		}
	}
}

// run executes one delivery of one job and applies the outcome policy.
func (m *Manager) run(ctx context.Context, rec queue.Record, resumed bool) {
	defer m.dropLive(rec.ID)
	var sp Spec
	if err := json.Unmarshal(rec.Spec, &sp); err != nil {
		m.bury(rec.ID, fmt.Sprintf("%s: stored spec undecodable: %v", CauseSpec, err))
		return
	}
	if err := sp.Normalize(); err != nil {
		m.bury(rec.ID, fmt.Sprintf("%s: %v", CauseSpec, err))
		return
	}
	crash, err := m.execute(ctx, rec, &sp, resumed)
	switch {
	case crash != nil:
		// Simulated process death: leave every piece of durable state
		// exactly as it is — the job stays Running in the WAL, its
		// latest checkpoint stays on disk — and tell the owner. From
		// here on, this state directory is indistinguishable from one a
		// real SIGKILL left behind.
		m.opts.Logf("jobs: %s: simulated crash: %v", rec.ID, crash)
		if m.opts.OnCrash != nil {
			m.opts.OnCrash(rec.ID, crash)
		}
	case err == nil:
		m.ops.Counter("agesrv_jobs_completed_total").Inc()
		if aerr := m.q.Ack(rec.ID); aerr != nil {
			m.opts.Logf("jobs: acking %s: %v", rec.ID, aerr)
		}
	case errors.Is(err, aging.ErrInterrupted) && m.ctx.Err() != nil:
		// Graceful shutdown: the replay already checkpointed at its
		// exact cursor. Leaving the record Running is what makes the
		// next Open resume it.
		m.opts.Logf("jobs: %s: interrupted for shutdown at checkpoint", rec.ID)
	case errors.Is(err, aging.ErrInterrupted):
		// Per-job timeout. Progress up to the final checkpoint is kept:
		// the retry resumes rather than starting over.
		m.retryOrBury(rec, &sp,
			fmt.Sprintf("%s: attempt %d exceeded %gs", CauseTimeout, rec.Attempt, sp.TimeoutSec))
	case errors.Is(err, errArtifacts):
		// Environmental write failure; worth retrying.
		m.retryOrBury(rec, &sp, fmt.Sprintf("%s: attempt %d: %v", CauseArtifacts, rec.Attempt, err))
	default:
		// Deterministic replay failure: retrying reproduces it.
		m.bury(rec.ID, fmt.Sprintf("%s: %v", CauseReplay, err))
	}
}

// retryOrBury applies the bounded-retry policy after a failed attempt.
func (m *Manager) retryOrBury(rec queue.Record, sp *Spec, cause string) {
	if rec.Attempt >= sp.MaxAttempts {
		m.bury(rec.ID, cause+"; retries exhausted")
		return
	}
	d := Backoff(rec.ID, rec.Attempt, m.opts.BackoffBase, m.opts.BackoffMax)
	m.opts.Logf("jobs: %s: %s; retrying in %v", rec.ID, cause, d)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-m.ctx.Done():
		// Shutdown mid-backoff: stay Running; the restart resumes from
		// the checkpoint immediately, which strictly beats re-waiting.
		return
	case <-t.C:
	}
	if err := m.q.Nack(rec.ID, cause); err != nil {
		m.opts.Logf("jobs: nacking %s: %v", rec.ID, err)
		return
	}
	m.ops.Counter("agesrv_jobs_retried_total").Inc()
	m.wakeUp()
}

// bury dead-letters a job with its typed cause.
func (m *Manager) bury(id, cause string) {
	m.opts.Logf("jobs: burying %s: %s", id, cause)
	m.ops.Counter("agesrv_jobs_dead_total").Inc()
	if err := m.q.Bury(id, cause); err != nil {
		m.opts.Logf("jobs: burying %s: %v", id, err)
	}
}

// errArtifacts tags artifact-write failures for the retry policy.
var errArtifacts = errors.New("jobs: writing artifacts")

// execute runs one attempt: rebuild inputs, resume from the latest
// checkpoint if one exists, replay, and on success persist artifacts.
// A simulated crash is returned separately — it is an outcome, not an
// error to handle.
func (m *Manager) execute(ctx context.Context, rec queue.Record, sp *Spec, resumed bool) (*faults.Crash, error) {
	policy, err := sp.policy()
	if err != nil {
		return nil, err
	}
	wl, err := sp.buildWorkload()
	if err != nil {
		return nil, err
	}
	jdir := m.jobDir(rec.ID)
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", errArtifacts, err)
	}

	reg := obs.NewRegistry()
	m.setLive(rec.ID, reg)
	sc := reg.Scope("job")
	prog := sc.Tracer("progress", obs.EventLines)

	jctx := ctx
	if sp.TimeoutSec > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(ctx, time.Duration(sp.TimeoutSec*float64(time.Second)))
		defer cancel()
	}

	cp := m.loadCheckpoint(rec.ID)
	opts := aging.Options{
		Ctx:             jctx,
		CheckpointEvery: sp.CheckpointDays,
		Checkpoint:      func(c *trace.Checkpoint) error { return trace.SaveCheckpoint(m.checkpointPath(rec.ID), c) },
		Obs:             sc,
		Progress: func(day int, score, util float64) {
			prog.Emit(float64(day), "day",
				obs.I("day", int64(day)), obs.F("layout", score), obs.F("util", util))
		},
	}
	// The fault plan belongs to the job's first fresh run only. A
	// resumed or checkpointed run re-firing crash@op would crash-loop
	// forever; ResumeReplay documents the same rule.
	if cp == nil && !resumed && sp.Faults != "" {
		opts.Faults, err = faults.Parse(sp.Faults)
		if err != nil {
			return nil, err
		}
	}

	var res *aging.Result
	if cp != nil {
		res, err = aging.ResumeReplay(policy, wl, cp, opts)
	} else {
		res, err = aging.Replay(sp.params(), policy, wl, opts)
	}
	var crash *faults.Crash
	if errors.As(err, &crash) {
		return crash, nil
	}
	if err != nil {
		return nil, err
	}
	if err := m.writeArtifacts(jdir, sp, res, wl); err != nil {
		return nil, fmt.Errorf("%w: %v", errArtifacts, err)
	}
	return nil, nil
}

// Result is the persisted summary of a completed job (result.json).
// Every field is derived from resume-safe state, so an interrupted and
// resumed job writes byte-identical JSON to an uninterrupted one.
type Result struct {
	ID          string    `json:"id"`
	Policy      string    `json:"policy"`
	Days        int       `json:"days"`
	FinalLayout float64   `json:"final_layout"`
	FinalUtil   float64   `json:"final_util"`
	FileCount   int       `json:"file_count"`
	SkippedOps  int       `json:"skipped_ops"`
	NoSpaceOps  int       `json:"nospace_ops"`
	FaultedOps  int       `json:"faulted_ops"`
	LayoutByDay []float64 `json:"layout_by_day"`
	UtilByDay   []float64 `json:"util_by_day"`
	ImageBytes  int       `json:"image_bytes"`
	ImageSHA256 string    `json:"image_sha256"`
}

// writeArtifacts persists a finished job: the aged image, the
// deterministic metrics, events, and span snapshots (aging.PublishResult
// into a fresh registry — the resume-safe view), and last the result.json
// summary, whose presence marks the artifact set complete. All writes
// are atomic renames, and the whole set is rewritten identically if the
// process dies between writing artifacts and acking the job.
func (m *Manager) writeArtifacts(jdir string, sp *Spec, res *aging.Result, wl *trace.Workload) error {
	areg := obs.NewRegistry()
	aging.PublishResult(areg.Scope("job"), res, wl)
	var ev, met, sps, img bytes.Buffer
	if err := areg.WriteEvents(&ev); err != nil {
		return err
	}
	if err := areg.WriteMetrics(&met); err != nil {
		return err
	}
	if err := areg.WriteSpans(&sps); err != nil {
		return err
	}
	if err := res.Fs.SaveImage(&img); err != nil {
		return err
	}
	sum := sha256.Sum256(img.Bytes())
	out := Result{
		ID:          sp.ID,
		Policy:      sp.Policy,
		Days:        wl.Days,
		FinalLayout: res.LayoutByDay.FinalOr(0),
		FinalUtil:   res.UtilByDay.FinalOr(0),
		FileCount:   res.Fs.FileCount(),
		SkippedOps:  res.SkippedOps,
		NoSpaceOps:  res.NoSpaceOps,
		FaultedOps:  res.FaultedOps,
		LayoutByDay: res.LayoutByDay.Values(),
		UtilByDay:   res.UtilByDay.Values(),
		ImageBytes:  img.Len(),
		ImageSHA256: hex.EncodeToString(sum[:]),
	}
	rj, err := json.MarshalIndent(&out, "", "  ")
	if err != nil {
		return err
	}
	rj = append(rj, '\n')
	for _, f := range []struct {
		name string
		data []byte
	}{
		{"image.ffi", img.Bytes()},
		{"events.jsonl", ev.Bytes()},
		{"metrics.txt", met.Bytes()},
		{"spans.jsonl", sps.Bytes()},
		{"result.json", rj},
	} {
		if err := trace.ReplaceFile(filepath.Join(jdir, f.name), f.data); err != nil {
			return err
		}
	}
	return nil
}

// jobDir returns the job's state directory (IDs are validated to be
// single safe path components).
func (m *Manager) jobDir(id string) string { return filepath.Join(m.dir, "jobs", id) }

// checkpointPath is where a job's latest checkpoint lives.
func (m *Manager) checkpointPath(id string) string {
	return filepath.Join(m.jobDir(id), "checkpoint.ffc")
}

// loadCheckpoint returns the job's latest checkpoint, or nil when there
// is none or it does not decode (a corrupt checkpoint degrades the job
// to a fresh run — slower, never wrong).
func (m *Manager) loadCheckpoint(id string) *trace.Checkpoint {
	cp, err := trace.LoadCheckpoint(m.checkpointPath(id))
	if err != nil {
		m.opts.Logf("jobs: %s: checkpoint unreadable, restarting from scratch: %v", id, err)
		return nil
	}
	return cp
}

// setLive registers a running job's live registry for the event API.
func (m *Manager) setLive(id string, reg *obs.Registry) {
	m.liveMu.Lock()
	m.live[id] = reg
	m.liveMu.Unlock()
}

// dropLive forgets a job's live registry once its delivery ends.
func (m *Manager) dropLive(id string) {
	m.liveMu.Lock()
	delete(m.live, id)
	m.liveMu.Unlock()
}

// liveRegistry returns the live registry of a running job, if any.
func (m *Manager) liveRegistry(id string) *obs.Registry {
	m.liveMu.Lock()
	defer m.liveMu.Unlock()
	return m.live[id]
}

package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ffsage/internal/obs"
	"ffsage/internal/queue"
)

// fastOpts returns Manager options tuned for tests: tight polling and
// near-zero backoff so retries and dispatch latency do not dominate.
// Each test gets a private operational registry so assertions on
// lifecycle counters never see another test's traffic.
func fastOpts(dir string) Options {
	return Options{
		Dir:         dir,
		Workers:     1,
		Poll:        2 * time.Millisecond,
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Ops:         obs.NewRegistry(),
	}
}

// testSpec is a job small enough to age in well under a second.
func testSpec(id string, days int) *Spec {
	return &Spec{ID: id, Days: days, Seed: 42}
}

// waitState polls until the job reaches want. An unexpected dead-letter
// fails immediately with its cause rather than timing out.
func waitState(t *testing.T, q queue.Queue, id string, want queue.State) queue.Record {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		rec, ok := q.Get(id)
		if ok && rec.State == want {
			return rec
		}
		if ok && want != queue.Dead && rec.State == queue.Dead {
			t.Fatalf("%s dead-lettered: %s", id, rec.Cause)
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s to reach %v (now %+v, present=%v)", id, want, rec, ok)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// artifactNames is the complete artifact set of a Done job.
var artifactNames = [...]string{"result.json", "events.jsonl", "metrics.txt", "spans.jsonl", "image.ffi"}

// readArtifacts returns the job's artifact files by name.
func readArtifacts(t *testing.T, dir, id string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range artifactNames {
		data, err := os.ReadFile(filepath.Join(dir, "jobs", id, name))
		if err != nil {
			t.Fatalf("artifact %s: %v", name, err)
		}
		out[name] = data
	}
	return out
}

func TestJobRunsToCompletion(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts(dir)
	opts.Queue = queue.NewMemory()
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	id, err := m.Submit(testSpec("", 4))
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-000001" {
		t.Fatalf("assigned id %q", id)
	}
	rec := waitState(t, m.Queue(), id, queue.Done)
	if rec.Attempt != 1 {
		t.Fatalf("done after %d attempts, want 1", rec.Attempt)
	}

	art := readArtifacts(t, dir, id)
	var res Result
	if err := json.Unmarshal(art["result.json"], &res); err != nil {
		t.Fatalf("result.json: %v", err)
	}
	if res.ID != id || res.Days != 4 || len(res.LayoutByDay) != 4 {
		t.Fatalf("result %+v", res)
	}
	if res.FinalLayout <= 0 || res.FinalUtil <= 0 || res.FileCount <= 0 {
		t.Fatalf("implausible result %+v", res)
	}
	if res.ImageBytes != len(art["image.ffi"]) {
		t.Fatalf("image is %d bytes, result says %d", len(art["image.ffi"]), res.ImageBytes)
	}
	if !strings.Contains(string(art["events.jsonl"]), `"stream":"job.days"`) {
		t.Error("events.jsonl missing the per-day stream")
	}
	if !strings.Contains(string(art["metrics.txt"]), "counter job.days 4") {
		t.Errorf("metrics.txt missing the days counter:\n%s", art["metrics.txt"])
	}

	// Exactly-once at the API boundary: the same ID cannot be
	// resubmitted and run twice.
	if _, err := m.Submit(testSpec(id, 4)); !errors.Is(err, queue.ErrExists) {
		t.Fatalf("resubmitting a done id: %v", err)
	}
}

func TestUndecodableSpecIsDeadLettered(t *testing.T) {
	q := queue.NewMemory()
	if err := q.Enqueue("broken", []byte("{not json")); err != nil {
		t.Fatal(err)
	}
	opts := fastOpts(t.TempDir())
	opts.Queue = q
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rec := waitState(t, q, "broken", queue.Dead)
	if !strings.HasPrefix(rec.Cause, CauseSpec+":") {
		t.Fatalf("cause %q, want %s prefix", rec.Cause, CauseSpec)
	}
}

// TestTimeoutRetriesThenDeadLetters: a timeout every attempt exhausts
// the bounded retries and dead-letters the job with a typed cause —
// and every attempt left a checkpoint, so each retry resumed rather
// than starting over.
func TestTimeoutRetriesThenDeadLetters(t *testing.T) {
	dir := t.TempDir()
	opts := fastOpts(dir)
	opts.Queue = queue.NewMemory()
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// 400 days is far more replay than even a grossly late 1ms timer
	// allows, so every attempt reliably times out mid-run.
	sp := testSpec("t1", 400)
	sp.TimeoutSec = 0.001
	sp.MaxAttempts = 3
	if _, err := m.Submit(sp); err != nil {
		t.Fatal(err)
	}
	rec := waitState(t, m.Queue(), "t1", queue.Dead)
	if rec.Attempt != 3 {
		t.Fatalf("dead after %d attempts, want 3", rec.Attempt)
	}
	if !strings.HasPrefix(rec.Cause, CauseTimeout+":") || !strings.Contains(rec.Cause, "retries exhausted") {
		t.Fatalf("cause %q", rec.Cause)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "t1", "checkpoint.ffc")); err != nil {
		t.Fatalf("timed-out attempts left no checkpoint: %v", err)
	}
}

func TestSubmitShedsLoadAtBound(t *testing.T) {
	opts := fastOpts(t.TempDir())
	opts.Queue = queue.NewMemory()
	opts.MaxPending = 1
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	if _, err := m.Submit(testSpec("run", 12)); err != nil {
		t.Fatal(err)
	}
	waitState(t, m.Queue(), "run", queue.Running) // occupies the only worker
	if _, err := m.Submit(testSpec("wait", 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(testSpec("shed", 4)); !errors.Is(err, ErrBusy) {
		t.Fatalf("submit over the bound: %v", err)
	}
}

// TestGracefulShutdownResumesByteIdentical is the SIGTERM contract:
// Close interrupts the running job at an operation boundary with a
// final checkpoint and leaves it Running; a fresh Manager over the same
// state directory resumes it exactly once and writes artifacts
// byte-identical to an uninterrupted run's.
func TestGracefulShutdownResumesByteIdentical(t *testing.T) {
	sp := testSpec("steady", 10)

	// Reference: the same job run without interruption (WAL-backed,
	// like the real daemon).
	refDir := t.TempDir()
	mr, err := Open(fastOpts(refDir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mr.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitState(t, mr.Queue(), sp.ID, queue.Done)
	ref := readArtifacts(t, refDir, sp.ID)
	if err := mr.Close(); err != nil {
		t.Fatal(err)
	}

	// Interrupted: wait for the first periodic checkpoint, then drain.
	dir := t.TempDir()
	m1, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Submit(sp); err != nil {
		t.Fatal(err)
	}
	cpPath := filepath.Join(dir, "jobs", sp.ID, "checkpoint.ffc")
	for start := time.Now(); ; {
		if _, err := os.Stat(cpPath); err == nil {
			break
		}
		if rec, ok := m1.Queue().Get(sp.ID); ok && rec.State == queue.Done {
			break // outran the shutdown; equivalence below still holds
		}
		if time.Since(start) > 120*time.Second {
			t.Fatal("no checkpoint appeared")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := Open(fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec := waitState(t, m2.Queue(), sp.ID, queue.Done)
	if rec.Attempt != 1 {
		t.Fatalf("resumed job recorded %d attempts, want 1 (no redelivery)", rec.Attempt)
	}
	got := readArtifacts(t, dir, sp.ID)
	for _, name := range artifactNames {
		if string(got[name]) != string(ref[name]) {
			t.Errorf("%s differs from the uninterrupted run (%d vs %d bytes)",
				name, len(got[name]), len(ref[name]))
		}
	}
}

// TestGarbageCheckpointRunsFresh: a job whose checkpoint.ffc does not
// decode is logged and re-run from scratch, and its artifacts equal an
// uninterrupted run's.
func TestGarbageCheckpointRunsFresh(t *testing.T) {
	sp := testSpec("garbled", 6)

	refDir := t.TempDir()
	mr, err := Open(fastOpts(refDir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mr.Submit(sp); err != nil {
		t.Fatal(err)
	}
	waitState(t, mr.Queue(), sp.ID, queue.Done)
	ref := readArtifacts(t, refDir, sp.ID)
	if err := mr.Close(); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cpPath := filepath.Join(dir, "jobs", sp.ID, "checkpoint.ffc")
	if err := os.MkdirAll(filepath.Dir(cpPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cpPath, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var logged []string
	opts := fastOpts(dir)
	opts.Logf = func(format string, args ...any) {
		mu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(sp); err != nil {
		t.Fatal(err)
	}
	rec := waitState(t, m.Queue(), sp.ID, queue.Done)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.Attempt != 1 {
		t.Fatalf("done after %d attempts, want 1", rec.Attempt)
	}
	got := readArtifacts(t, dir, sp.ID)
	for _, name := range artifactNames {
		if string(got[name]) != string(ref[name]) {
			t.Errorf("%s differs from the uninterrupted run (%d vs %d bytes)",
				name, len(got[name]), len(ref[name]))
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if !slices.ContainsFunc(logged, func(l string) bool { return strings.Contains(l, cpPath) }) {
		t.Errorf("no log line names the unreadable checkpoint %s; logged %q", cpPath, logged)
	}
}

func TestBackoffDeterministicBoundedGrowing(t *testing.T) {
	base, max := 50*time.Millisecond, 2*time.Second
	var prev time.Duration
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := Backoff("job-x", attempt, base, max)
		d2 := Backoff("job-x", attempt, base, max)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic backoff %v vs %v", attempt, d1, d2)
		}
		if d1 < base/2 || d1 > max {
			t.Fatalf("attempt %d: %v outside [%v, %v]", attempt, d1, base/2, max)
		}
		if d1 < prev/2 {
			t.Fatalf("attempt %d: %v collapsed below half of previous %v", attempt, d1, prev)
		}
		prev = d1
	}
	if Backoff("job-x", 3, base, max) == Backoff("job-y", 3, base, max) {
		t.Error("different jobs share identical jitter")
	}
}

package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withWorkers sets the process-wide worker bound for one test.
func withWorkers(tb testing.TB, n int) {
	SetWorkers(n)
	tb.Cleanup(func() { SetWorkers(0) })
}

func TestResultsInSubmissionOrder(t *testing.T) {
	const n = 50
	out := make([]int, n)
	withWorkers(t, 8)
	g := New(context.Background())
	for i := 0; i < n; i++ {
		i := i
		g.Go(fmt.Sprintf("job%d", i), func(context.Context) error {
			// Finish in roughly reverse submission order.
			time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
			out[i] = i * i
			return nil
		})
	}
	stats, err := g.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != n {
		t.Fatalf("got %d stats, want %d", len(stats), n)
	}
	for i, st := range stats {
		if st.Label != fmt.Sprintf("job%d", i) {
			t.Errorf("stat %d label %q", i, st.Label)
		}
		if out[i] != i*i {
			t.Errorf("slot %d = %d, want %d", i, out[i], i*i)
		}
	}
}

func TestWorkerBoundRespected(t *testing.T) {
	const bound = 3
	var running, peak atomic.Int64
	withWorkers(t, bound)
	g := New(context.Background())
	for i := 0; i < 20; i++ {
		g.Go("j", func(context.Context) error {
			cur := running.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			running.Add(-1)
			return nil
		})
	}
	if _, err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > bound {
		t.Fatalf("peak concurrency %d exceeds bound %d", p, bound)
	}
}

func TestLowestSubmittedErrorWins(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	started := make(chan struct{})
	withWorkers(t, 4)
	g := New(context.Background())
	g.Go("ok", func(context.Context) error { return nil })
	g.Go("slow-fail", func(context.Context) error {
		close(started)
		time.Sleep(10 * time.Millisecond)
		return errA
	})
	g.Go("fast-fail", func(context.Context) error {
		<-started // fail strictly after slow-fail began running
		return errB
	})
	if _, err := g.Wait(); !errors.Is(err, errA) {
		t.Fatalf("got %v, want the lowest-submitted error %v", err, errA)
	}
}

func TestCancellationSkipsQueuedJobs(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	withWorkers(t, 1)
	g := New(context.Background())
	started := make(chan struct{})
	g.Go("fail", func(context.Context) error {
		close(started)
		time.Sleep(time.Millisecond)
		return boom
	})
	<-started // the failing job holds the only slot; the rest queue
	for i := 0; i < 10; i++ {
		g.Go("later", func(context.Context) error {
			ran.Add(1)
			return nil
		})
	}
	stats, err := g.Wait()
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	skipped := 0
	for _, st := range stats[1:] {
		if errors.Is(st.Err, context.Canceled) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Errorf("no queued job was skipped after the failure (ran=%d)", ran.Load())
	}
}

// TestExternalCancelDrainsPoolPromptly is the daemon-shutdown contract:
// cancelling the context a Group was built on must (a) interrupt
// running jobs that honour their context, (b) skip every queued job
// without running it, and (c) let Wait return promptly — the pool never
// insists on finishing the whole batch.
func TestExternalCancelDrainsPoolPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const workersN = 2
	var started, finished atomic.Int64
	release := make(chan struct{}) // never closed: jobs end only via ctx
	withWorkers(t, workersN)
	g := New(ctx)
	for i := 0; i < 10; i++ {
		g.Go("blocker", func(jctx context.Context) error {
			started.Add(1)
			select {
			case <-jctx.Done():
				return jctx.Err()
			case <-release:
				finished.Add(1)
				return nil
			}
		})
	}
	// Wait for the first workersN jobs to occupy the pool, then pull the
	// plug on the whole group from outside.
	deadline := time.Now().Add(5 * time.Second)
	for started.Load() < workersN {
		if time.Now().After(deadline) {
			t.Fatal("workers never started")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()

	done := make(chan struct{})
	var stats []Stat
	var err error
	go func() {
		stats, err = g.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after cancellation: the pool ran the whole batch")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait returned %v, want context.Canceled", err)
	}
	if got := started.Load(); got != workersN {
		t.Errorf("%d jobs started, want exactly the %d in flight at cancel time", got, workersN)
	}
	if finished.Load() != 0 {
		t.Errorf("%d jobs ran to completion after cancel", finished.Load())
	}
	for i, st := range stats {
		if st.Err == nil {
			t.Errorf("job %d reported success after cancellation", i)
		}
	}
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(2)
	if Workers() != 2 {
		t.Fatalf("Workers() = %d after SetWorkers(2)", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS", Workers())
	}
}

// TestTelemetryCapture checks the job log: with capture off a group's
// stats are discarded, with it on they are kept in submission order
// with their errors, and switching capture off clears them.
func TestTelemetryCapture(t *testing.T) {
	withWorkers(t, 2)
	run := func() {
		t.Helper()
		started := make(chan struct{})
		g := New(context.Background())
		g.Go("alpha", func(context.Context) error {
			close(started)
			time.Sleep(2 * time.Millisecond) // finish after beta
			return nil
		})
		g.Go("beta", func(context.Context) error {
			<-started
			return errBoom
		})
		if _, err := g.Wait(); err != errBoom {
			t.Fatalf("Wait returned %v, want %v", err, errBoom)
		}
	}

	CaptureTelemetry(false)
	run()
	if tel := Telemetry(); len(tel) != 0 {
		t.Fatalf("captured %d stats while capture was off", len(tel))
	}

	CaptureTelemetry(true)
	defer CaptureTelemetry(false)
	run()
	tel := Telemetry()
	if len(tel) != 2 || tel[0].Label != "alpha" || tel[0].Err != nil ||
		tel[1].Label != "beta" || tel[1].Err != errBoom {
		t.Fatalf("telemetry = %+v", tel)
	}

	CaptureTelemetry(false)
	if tel := Telemetry(); len(tel) != 0 {
		t.Fatalf("switching capture off kept %d stats", len(tel))
	}
}

var errBoom = errors.New("boom")

// TestTimeLogsStageNotJob checks that a serial stage reaches the stage
// log with its error, and stays out of the job telemetry.
func TestTimeLogsStageNotJob(t *testing.T) {
	CaptureTelemetry(true)
	defer CaptureTelemetry(false)
	boom := errors.New("boom")
	if err := Time("build", func() error { return boom }); err != boom {
		t.Fatalf("Time returned %v, want the stage's error", err)
	}
	st := Stages()
	if len(st) != 1 || st[0].Label != "build" || st[0].Err != boom {
		t.Fatalf("stages = %+v", st)
	}
	if tel := Telemetry(); len(tel) != 0 {
		t.Fatalf("stage leaked into job telemetry: %+v", tel)
	}
	CaptureTelemetry(true)
	if st := Stages(); len(st) != 0 {
		t.Fatalf("re-enabling capture kept %d stages", len(st))
	}
}

// spin burns CPU for roughly d without sleeping, so the speedup
// benchmark measures genuine parallel execution.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x += i
		}
	}
	_ = x
}

// BenchmarkGroupSpeedup runs a fixed set of CPU-bound jobs serially
// (one worker) and on all cores, reporting the wall-time ratio. On a
// machine with ≥4 cores the x-speedup metric demonstrates the ≥2×
// reduction the parallel harness buys; on one core it reports ~1.
func BenchmarkGroupSpeedup(b *testing.B) {
	const jobs = 8
	const work = 3 * time.Millisecond
	run := func(workersN int) time.Duration {
		start := time.Now()
		SetWorkers(workersN)
		g := New(context.Background())
		for i := 0; i < jobs; i++ {
			g.Go("spin", func(context.Context) error { spin(work); return nil })
		}
		if _, err := g.Wait(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	defer SetWorkers(0)
	var speedup float64
	for i := 0; i < b.N; i++ {
		serial := run(1)
		parallel := run(runtime.GOMAXPROCS(0))
		speedup = serial.Seconds() / parallel.Seconds()
	}
	b.ReportMetric(speedup, "x-speedup")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

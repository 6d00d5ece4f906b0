package aging

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/faults"
	"ffsage/internal/obs"
	"ffsage/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// snapshotRun replays wl (or resumes from cp) and returns the published
// metrics, events, and span dumps.
func snapshotRun(t *testing.T, wl *trace.Workload, cp *trace.Checkpoint, opts Options) (metrics, events, spans string) {
	t.Helper()
	return snapshotOf(t, wl, opts, func(opts Options) (*Result, error) {
		if cp != nil {
			return ResumeReplay(core.Realloc{}, wl, cp, opts)
		}
		return Replay(testParams(), core.Realloc{}, wl, opts)
	})
}

// snapshotOf is snapshotRun for any replay of wl: replay runs with
// opts plus the registry scope, and its result is published.
func snapshotOf(t *testing.T, wl *trace.Workload, opts Options, replay func(Options) (*Result, error)) (metrics, events, spans string) {
	t.Helper()
	reg := obs.NewRegistry()
	opts.Obs = reg.Scope("aging.test")
	res, err := replay(opts)
	if err != nil {
		t.Fatal(err)
	}
	PublishResult(reg.Scope("aging.test"), res, wl)
	var m, e, s bytes.Buffer
	if err := reg.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteEvents(&e); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteSpans(&s); err != nil {
		t.Fatal(err)
	}
	return m.String(), e.String(), s.String()
}

// TestPublishResultGolden pins the exact snapshot text of a small
// seeded replay. If this fails because metrics were intentionally
// added or renamed, regenerate with:
//
//	go test ./internal/aging -run PublishResultGolden -update
func TestPublishResultGolden(t *testing.T) {
	wl := testWorkload(11, 10)
	reg := obs.NewRegistry()
	res, err := Replay(testParams(), core.Realloc{}, wl, Options{Obs: reg.Scope("aging.golden")})
	if err != nil {
		t.Fatal(err)
	}
	PublishResult(reg.Scope("aging.golden"), res, wl)
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "metrics_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("metrics snapshot drifted from golden file (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}

// TestPublishResultResumeIdentical crashes a checkpointing replay
// mid-run, resumes it, and requires the resumed run's published
// metrics, event streams, AND span streams to be byte-identical to an
// uninterrupted run's — the observability half of the
// resume-determinism contract.
func TestPublishResultResumeIdentical(t *testing.T) {
	wl := testWorkload(5, 14)

	wantMetrics, wantEvents, wantSpans := snapshotRun(t, wl, nil, Options{})
	if !strings.Contains(wantSpans, `"span":"replay"`) {
		t.Fatalf("span stream missing the replay root (vacuous comparison):\n%s", wantSpans)
	}

	var cps []*trace.Checkpoint
	_, err := Replay(testParams(), core.Realloc{}, wl, Options{
		Faults:          faults.MustParse("crash@day:9"),
		CheckpointEvery: 3,
		Checkpoint:      collectCheckpoints(t, &cps),
	})
	var crash *faults.Crash
	if !errors.As(err, &crash) {
		t.Fatalf("expected planned crash, got %v", err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints before the crash")
	}

	gotMetrics, gotEvents, gotSpans := snapshotRun(t, wl, cps[len(cps)-1], Options{})
	if gotMetrics != wantMetrics {
		t.Errorf("resumed metrics differ from uninterrupted run\ngot:\n%s\nwant:\n%s", gotMetrics, wantMetrics)
	}
	if gotEvents != wantEvents {
		t.Errorf("resumed events differ from uninterrupted run\ngot:\n%s\nwant:\n%s", gotEvents, wantEvents)
	}
	if gotSpans != wantSpans {
		t.Errorf("resumed spans differ from uninterrupted run\ngot:\n%s\nwant:\n%s", gotSpans, wantSpans)
	}
}

// TestRunStreamRecordsIncidents checks the non-resume-safe side
// channel: a crashed, checkpointing run logs its checkpoints, the
// allocation fault it absorbed and its crash on the "run" tracer.
func TestRunStreamRecordsIncidents(t *testing.T) {
	wl := testWorkload(5, 14)
	reg := obs.NewRegistry()
	var cps []*trace.Checkpoint
	_, err := Replay(testParams(), core.Realloc{}, wl, Options{
		Obs:             reg.Scope("aging.test"),
		Faults:          faults.MustParse("ioerr@alloc:40,crash@day:9"),
		CheckpointEvery: 3,
		Checkpoint:      collectCheckpoints(t, &cps),
	})
	var crash *faults.Crash
	if !errors.As(err, &crash) {
		t.Fatalf("expected planned crash, got %v", err)
	}
	tr := reg.Tracer("aging.test.run", obs.EventLines)
	var checkpoints, faulted, crashes int
	for _, ev := range tr.Spans() {
		switch ev.Name {
		case "checkpoint":
			checkpoints++
		case "fault":
			faulted++
		case "crash":
			crashes++
		}
	}
	if faulted != 1 {
		t.Errorf("%d fault events, want 1", faulted)
	}
	if checkpoints != len(cps) {
		t.Errorf("%d checkpoint events, want %d", checkpoints, len(cps))
	}
	if crashes != 1 {
		t.Errorf("%d crash events, want 1", crashes)
	}
}

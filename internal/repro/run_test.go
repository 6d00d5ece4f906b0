package repro

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ffsage/internal/faults"
)

// outputs names the files a Run writes under dir.
func outputs(o Options, dir string) Options {
	o.MDPath = filepath.Join(dir, "report.md")
	o.Metrics = filepath.Join(dir, "metrics.txt")
	o.Events = filepath.Join(dir, "events.jsonl")
	o.SpansJSONL = filepath.Join(dir, "spans.jsonl")
	return o
}

// sameFiles fails t unless each file exists in both directories with
// the same bytes.
func sameFiles(t *testing.T, a, b string, names ...string) {
	t.Helper()
	for _, name := range names {
		x, err := os.ReadFile(filepath.Join(a, name))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs (%d vs %d bytes)", name, len(x), len(y))
		}
	}
}

// TestRunTwiceIdentical: a second Run in the same process publishes
// into a registry of its own, so its snapshots equal the first's
// instead of carrying both runs' counters.
func TestRunTwiceIdentical(t *testing.T) {
	o := Options{Seed: 1996, Quick: true, Days: 10, Only: "fig2"}
	first, second := t.TempDir(), t.TempDir()
	for _, dir := range []string{first, second} {
		if err := Run(outputs(o, dir), io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	sameFiles(t, first, second, "report.md", "metrics.txt", "events.jsonl", "spans.jsonl")
}

// TestCrashResumeMatchesFresh is CI's crash/resume sequence in one
// process: a run that crashes on day 30 after checkpointing every 10
// days, resumed from its checkpoints, renders the report, metrics and
// spans of an uninterrupted run byte for byte.
func TestCrashResumeMatchesFresh(t *testing.T) {
	o := Options{Seed: 1996, Quick: true, Only: "fig2"}
	fresh, resumed, ckpt := t.TempDir(), t.TempDir(), t.TempDir()
	if err := Run(outputs(o, fresh), io.Discard); err != nil {
		t.Fatal(err)
	}

	crash := o
	crash.Faults, crash.CkptEvery, crash.CkptDir = "crash@day:30", 10, ckpt
	var c *faults.Crash
	if err := Run(crash, io.Discard); !errors.As(err, &c) {
		t.Fatalf("crash run: got %v, want a planned crash", err)
	}

	resume := outputs(o, resumed)
	resume.Resume, resume.CkptDir = true, ckpt
	if err := Run(resume, io.Discard); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, fresh, resumed, "report.md", "metrics.txt", "spans.jsonl")
}

// TestResumeCorruptCheckpointFails: a checkpoint that does not decode
// stops the resumed run with an error that names the file, rather than
// silently replaying that arm from scratch.
func TestResumeCorruptCheckpointFails(t *testing.T) {
	ckpt := t.TempDir()
	bad := filepath.Join(ckpt, "age-realloc.ckpt")
	if err := os.WriteFile(bad, []byte("FFC1 torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := Options{Seed: 1996, Quick: true, Days: 10, Only: "fig2", Resume: true, CkptDir: ckpt}
	err := Run(o, io.Discard)
	if err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("got %v, want an error naming %s", err, bad)
	}
}

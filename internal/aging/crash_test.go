package aging

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/faults"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
)

// collectCheckpoints returns a sink that round-trips every checkpoint
// through the binary codec — exactly what the on-disk path does — and
// keeps the decoded copies.
func collectCheckpoints(t *testing.T, out *[]*trace.Checkpoint) func(*trace.Checkpoint) error {
	return func(cp *trace.Checkpoint) error {
		var buf bytes.Buffer
		if err := trace.WriteCheckpoint(&buf, cp); err != nil {
			return err
		}
		got, err := trace.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("checkpoint did not round-trip: %w", err)
		}
		*out = append(*out, got)
		return nil
	}
}

func sameSeries(t *testing.T, label string, got, want stats.Series) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: point %d is {%d %v}, want {%d %v}",
				label, i, got[i].Day, got[i].Value, want[i].Day, want[i].Value)
		}
	}
}

// TestCrashRecoveryDifferential is the differential crash-recovery
// harness: crash a replay at 100+ seeded operation boundaries (every
// third one with a torn final write), repair the interrupted file
// system to Check()-clean, then resume from the last checkpoint and
// require the resumed run's daily series to be byte-identical to an
// uninterrupted reference run.
func TestCrashRecoveryDifferential(t *testing.T) {
	const (
		seed       = 1996
		days       = 16
		nCrashes   = 100
		checkEvery = 2
	)
	wl := testWorkload(seed, days)
	policy := core.Realloc{}

	ref, err := Replay(testParams(), policy, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}

	points := faults.CrashPoints(seed, nCrashes, len(wl.Ops))
	if len(points) < nCrashes {
		t.Fatalf("only %d crash points for %d ops", len(points), len(wl.Ops))
	}
	for i, opIdx := range points {
		spec := fmt.Sprintf("crash@op:%d", opIdx)
		if i%3 == 0 {
			spec = fmt.Sprintf("tear@op:%d", opIdx)
		}
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			var cps []*trace.Checkpoint
			res, err := Replay(testParams(), policy, wl, Options{
				Faults:          faults.MustParse(spec),
				CheckpointEvery: checkEvery,
				Checkpoint:      collectCheckpoints(t, &cps),
			})
			var crash *faults.Crash
			if !errors.As(err, &crash) {
				t.Fatalf("replay ended with %v, want a crash", err)
			}
			if crash.Op != opIdx {
				t.Fatalf("crashed at op %d, want %d", crash.Op, opIdx)
			}
			if res == nil || res.Fs == nil {
				t.Fatal("crash returned no partial result")
			}

			// The interrupted image must be repairable to Check-clean.
			rep, err := res.Fs.Repair()
			if err != nil {
				t.Fatalf("repair: %v", err)
			}
			if err := res.Fs.Check(); err != nil {
				t.Fatalf("post-repair check: %v (repair reported %s)", err, rep)
			}
			if crash.Torn && res.Fs.FileCount() > 1 && !rep.Any() {
				// A torn write usually leaves damage; zero fixes is only
				// plausible when nothing had been written yet.
				t.Logf("torn crash at op %d repaired nothing", opIdx)
			}

			// Resume from the last checkpoint written before the crash —
			// or from scratch when the crash beat the first checkpoint —
			// and require byte-identical series.
			var resumed *Result
			if len(cps) == 0 {
				resumed, err = Replay(testParams(), policy, wl, Options{})
			} else {
				resumed, err = ResumeReplay(policy, wl, cps[len(cps)-1], Options{})
			}
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			sameSeries(t, "layout", resumed.LayoutByDay, ref.LayoutByDay)
			sameSeries(t, "util", resumed.UtilByDay, ref.UtilByDay)
			if resumed.SkippedOps != ref.SkippedOps || resumed.NoSpaceOps != ref.NoSpaceOps || resumed.FaultedOps != ref.FaultedOps {
				t.Fatalf("resumed counters %d/%d/%d, want %d/%d/%d",
					resumed.SkippedOps, resumed.NoSpaceOps, resumed.FaultedOps, ref.SkippedOps, ref.NoSpaceOps, ref.FaultedOps)
			}
			if err := resumed.Fs.Check(); err != nil {
				t.Fatalf("resumed fs: %v", err)
			}
			if got, want := resumed.Fs.LayoutScore(), ref.Fs.LayoutScore(); got != want {
				t.Fatalf("resumed final layout %v, want %v", got, want)
			}
			if got, want := resumed.Fs.FileCount(), ref.Fs.FileCount(); got != want {
				t.Fatalf("resumed file count %d, want %d", got, want)
			}
		})
	}
}

// TestCrashAtDayBoundary crashes on a day condition and resumes.
func TestCrashAtDayBoundary(t *testing.T) {
	wl := testWorkload(7, 12)
	var cps []*trace.Checkpoint
	res, err := Replay(testParams(), core.Original{}, wl, Options{
		Faults:          faults.MustParse("crash@day:6"),
		CheckpointEvery: 3,
		Checkpoint:      collectCheckpoints(t, &cps),
	})
	var crash *faults.Crash
	if !errors.As(err, &crash) {
		t.Fatalf("got %v, want crash", err)
	}
	if crash.Day < 6 {
		t.Fatalf("crash fired on day %d, want >= 6", crash.Day)
	}
	if _, err := res.Fs.Repair(); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints before a day-6 crash with k=3")
	}
	ref, err := Replay(testParams(), core.Original{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := ResumeReplay(core.Original{}, wl, cps[len(cps)-1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, "layout", resumed.LayoutByDay, ref.LayoutByDay)
}

// TestInjectedAllocFaultIsAbsorbed: a one-shot allocation fault loses
// that op but the replay completes with a consistent file system.
func TestInjectedAllocFaultIsAbsorbed(t *testing.T) {
	wl := testWorkload(11, 6)
	res, err := Replay(testParams(), core.Original{}, wl, Options{
		Faults:     faults.MustParse("ioerr@alloc:40"),
		CheckEvery: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.FaultedOps != 1 {
		t.Fatalf("FaultedOps %d, want 1", res.FaultedOps)
	}
	if res.SkippedOps < 1 {
		t.Fatalf("SkippedOps %d", res.SkippedOps)
	}
	if err := res.Fs.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestResumeKeepsFaultedOps: an injected fault before a crash is
// counted in the checkpoint, so a resumed replay ends with the
// counters and series of an uninterrupted run under the same fault.
func TestResumeKeepsFaultedOps(t *testing.T) {
	wl := testWorkload(11, 8)
	ref, err := Replay(testParams(), core.Original{}, wl, Options{Faults: faults.MustParse("ioerr@alloc:40")})
	if err != nil {
		t.Fatal(err)
	}
	if ref.FaultedOps != 1 {
		t.Fatalf("reference FaultedOps %d, want 1", ref.FaultedOps)
	}
	var cps []*trace.Checkpoint
	_, err = Replay(testParams(), core.Original{}, wl, Options{
		Faults:          faults.MustParse("ioerr@alloc:40,crash@day:5"),
		CheckpointEvery: 1,
		Checkpoint:      collectCheckpoints(t, &cps),
	})
	var crash *faults.Crash
	if !errors.As(err, &crash) || len(cps) == 0 {
		t.Fatalf("replay ended with %v after %d checkpoints, want a crash after one", err, len(cps))
	}
	resumed, err := ResumeReplay(core.Original{}, wl, cps[len(cps)-1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameSeries(t, "layout", resumed.LayoutByDay, ref.LayoutByDay)
	if resumed.SkippedOps != ref.SkippedOps || resumed.NoSpaceOps != ref.NoSpaceOps || resumed.FaultedOps != ref.FaultedOps {
		t.Fatalf("resumed counters %d/%d/%d, want %d/%d/%d",
			resumed.SkippedOps, resumed.NoSpaceOps, resumed.FaultedOps, ref.SkippedOps, ref.NoSpaceOps, ref.FaultedOps)
	}
}

// TestResumeGuards: resuming under the wrong workload or a doctored
// cursor is refused.
func TestResumeGuards(t *testing.T) {
	wl := testWorkload(5, 6)
	var cps []*trace.Checkpoint
	if _, err := Replay(testParams(), core.Original{}, wl, Options{
		CheckpointEvery: 2,
		Checkpoint:      collectCheckpoints(t, &cps),
	}); err != nil {
		t.Fatal(err)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints")
	}
	cp := cps[0]

	other := testWorkload(6, 6)
	if _, err := ResumeReplay(core.Original{}, other, cp, Options{}); err == nil {
		t.Error("resume under a different workload accepted")
	}

	bad := *cp
	bad.NextOp = len(wl.Ops) + 5
	if _, err := ResumeReplay(core.Original{}, wl, &bad, Options{}); err == nil {
		t.Error("out-of-range cursor accepted")
	}

	short := *cp
	short.LayoutByDay = short.LayoutByDay[:len(short.LayoutByDay)-1]
	if _, err := ResumeReplay(core.Original{}, wl, &short, Options{}); err == nil {
		t.Error("series/cursor mismatch accepted")
	}

	// Resuming the final checkpoint of a finished run replays nothing
	// but still pads out the remaining days.
	last := cps[len(cps)-1]
	res, err := ResumeReplay(core.Original{}, wl, last, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LayoutByDay) != wl.Days {
		t.Fatalf("resumed series has %d days, want %d", len(res.LayoutByDay), wl.Days)
	}
}

// TestCorruptCrashImageNeedsRepair: after a torn crash the strict
// consistency check fails (the damage is real) and Repair mends it.
func TestCorruptCrashImageNeedsRepair(t *testing.T) {
	wl := testWorkload(13, 8)
	// Crash late enough that files exist for the tear to damage.
	res, err := Replay(testParams(), core.Original{}, wl, Options{
		Faults: faults.MustParse(fmt.Sprintf("tear@op:%d", len(wl.Ops)*3/4)),
	})
	var crash *faults.Crash
	if !errors.As(err, &crash) {
		t.Fatalf("got %v, want crash", err)
	}
	if err := res.Fs.Check(); err == nil {
		t.Skip("tear landed on a file state Check cannot distinguish")
	}
	rep, err := res.Fs.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Any() {
		t.Error("repair of a failing image reported no fixes")
	}
	if err := res.Fs.Check(); err != nil {
		t.Fatal(err)
	}
}

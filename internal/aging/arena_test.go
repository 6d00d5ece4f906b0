package aging

import (
	"bytes"
	"errors"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/faults"
	"ffsage/internal/ffs"
	"ffsage/internal/trace"
)

// replayUnpooled is Replay on a file system with File recycling
// disabled: the plain allocate-and-drop reference every pooled replay
// must match.
func replayUnpooled(wl *trace.Workload, opts Options) (*Result, error) {
	fsys, err := ffs.NewFileSystem(testParams(), core.Realloc{})
	if err != nil {
		return nil, err
	}
	fsys.SetPooling(false)
	return ReplayOn(fsys, wl, opts)
}

// imageOf returns the serialized image of a file system.
func imageOf(t *testing.T, fsys *ffs.FileSystem) []byte {
	t.Helper()
	var img bytes.Buffer
	if err := fsys.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	return img.Bytes()
}

// TestArenaOffIdenticalResults: the File-recycling arena is a pure
// memory-management change, so an unpooled replay must produce
// byte-identical aged images and published metrics/event snapshots.
// This is the differential backstop behind every arena optimization.
func TestArenaOffIdenticalResults(t *testing.T) {
	wl := testWorkload(17, 12)

	on, err := Replay(testParams(), core.Realloc{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := replayUnpooled(wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	imgOn, imgOff := imageOf(t, on.Fs), imageOf(t, off.Fs)
	if !bytes.Equal(imgOn, imgOff) {
		t.Errorf("aged images differ between arena on (%d bytes) and off (%d bytes)",
			len(imgOn), len(imgOff))
	}

	mOn, eOn, sOn := snapshotRun(t, wl, nil, Options{})
	mOff, eOff, sOff := snapshotOf(t, wl, Options{}, func(opts Options) (*Result, error) {
		return replayUnpooled(wl, opts)
	})
	if mOn != mOff {
		t.Errorf("metrics snapshots differ\narena on:\n%s\narena off:\n%s", mOn, mOff)
	}
	if eOn != eOff {
		t.Errorf("event snapshots differ\narena on:\n%s\narena off:\n%s", eOn, eOff)
	}
	if sOn != sOff {
		t.Errorf("span snapshots differ\narena on:\n%s\narena off:\n%s", sOn, sOff)
	}
}

// TestArenaOffIdenticalAcrossCrashResume crashes a checkpointing
// unpooled replay, resumes it pooled, and requires the published
// snapshots to match an uninterrupted pooled run byte for byte:
// pooling state is process memory, never checkpoint state, so a
// resume converges to the same result whatever the crashed run's pool
// did.
func TestArenaOffIdenticalAcrossCrashResume(t *testing.T) {
	wl := testWorkload(5, 14)
	wantMetrics, wantEvents, wantSpans := snapshotRun(t, wl, nil, Options{})

	t.Run("crash-off-resume-on", func(t *testing.T) {
		var cps []*trace.Checkpoint
		_, err := replayUnpooled(wl, Options{
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
			t.Errorf("resumed metrics differ from uninterrupted pooled run\ngot:\n%s\nwant:\n%s",
				gotMetrics, wantMetrics)
		}
		if gotEvents != wantEvents {
			t.Errorf("resumed events differ from uninterrupted pooled run\ngot:\n%s\nwant:\n%s",
				gotEvents, wantEvents)
		}
		if gotSpans != wantSpans {
			t.Errorf("resumed spans differ from uninterrupted pooled run\ngot:\n%s\nwant:\n%s",
				gotSpans, wantSpans)
		}
	})
}

// TestArenaRecyclesFiles sanity-checks the pool itself: a replay that
// deletes files reuses their File records instead of allocating fresh
// ones, and SetPooling(false) really disables that.
func TestArenaRecyclesFiles(t *testing.T) {
	wl := testWorkload(23, 10)
	res, err := Replay(testParams(), core.Realloc{}, wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := res.Fs.PoolStats()
	if ps.Recycles == 0 || ps.Reuses == 0 {
		t.Errorf("arena never cycled: %+v", ps)
	}
	res, err = replayUnpooled(wl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ps := res.Fs.PoolStats(); ps.Recycles != 0 || ps.Reuses != 0 || ps.Pooled != 0 {
		t.Errorf("arena disabled but still cycled: %+v", ps)
	}
}

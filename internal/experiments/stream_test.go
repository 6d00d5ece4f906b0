package experiments

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ffsage/internal/aging"
	"ffsage/internal/core"
	"ffsage/internal/ffs"
	"ffsage/internal/runner"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

func saveImage(t *testing.T, fs *ffs.FileSystem) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := fs.SaveImage(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStreamedSuiteMatchesFinishedBuild builds a Suite on a cold cache,
// so its three arms start on day 0 and replay each day as the build
// seals it, and compares every arm with a replay of the finished
// build's streams: daily series, counters, allocator stats and image
// bytes must be equal, on one worker and on two.
func TestStreamedSuiteMatchesFinishedBuild(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ResetCaches()
		runner.SetWorkers(workers)
		cfg := tinyCfg(31)
		s, err := NewSuite(cfg)
		runner.SetWorkers(0)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(s.Build.Reference.Snapshots); n != 0 {
			t.Errorf("-j %d: the cached build keeps %d nightly snapshots, which no consumer reads", workers, n)
		}
		arms := []struct {
			name string
			got  *aging.Result
			pol  ffs.Policy
			wl   *trace.Workload
		}{
			{"ffs", s.AgedFFS, core.Original{}, s.Build.Reconstructed},
			{"realloc", s.AgedRealloc, core.Realloc{}, s.Build.Reconstructed},
			{"ground-truth", s.RealFFS, core.Original{}, s.Build.Reference.GroundTruth},
		}
		for _, a := range arms {
			want, err := aging.Replay(cfg.FsParams, a.pol, a.wl, aging.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got := a.got
			if !reflect.DeepEqual(got.LayoutByDay, want.LayoutByDay) || !reflect.DeepEqual(got.UtilByDay, want.UtilByDay) {
				t.Errorf("-j %d %s: daily series differ from the finished build's replay", workers, a.name)
			}
			if got.SkippedOps != want.SkippedOps || got.NoSpaceOps != want.NoSpaceOps || got.Fs.Stats != want.Fs.Stats {
				t.Errorf("-j %d %s: counters or allocator stats differ", workers, a.name)
			}
			if !bytes.Equal(saveImage(t, got.Fs), saveImage(t, want.Fs)) {
				t.Errorf("-j %d %s: image differs from the finished build's replay", workers, a.name)
			}
		}
	}
	ResetCaches()
}

// TestBuildFailureFailsWaitingArms fails the Suite's workload build
// after it sealed two days, while the three arms replay them: NewSuite
// must return the build's error rather than block.
func TestBuildFailureFailsWaitingArms(t *testing.T) {
	boom := errors.New("build failed on day 2")
	orig := buildDays
	defer func() { buildDays = orig }()
	buildDays = func(wc workload.Config, nc workload.NFSTraceConfig, seal func(truth, recon []trace.Op, days int)) (*workload.Build, error) {
		_, err := workload.BuildDays(wc, nc, func(truth, recon []trace.Op, days int) {
			if days <= 2 {
				seal(truth, recon, days)
			}
		})
		if err != nil {
			return nil, err
		}
		return nil, boom
	}
	ResetCaches()
	defer ResetCaches()
	runner.SetWorkers(2)
	defer runner.SetWorkers(0)
	if _, err := NewSuite(tinyCfg(37)); !errors.Is(err, boom) {
		t.Fatalf("NewSuite returned %v, want the build's error", err)
	}
}

package bench_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/experiments"
	"ffsage/internal/ffs"
	"ffsage/internal/stats"
)

// agedMicro returns a private copy of the Micro workload aged under
// realloc, and the configuration it was aged with.
func agedMicro(t *testing.T) (*ffs.FileSystem, experiments.Config) {
	t.Helper()
	cfg := experiments.Micro(7)
	b, err := experiments.CachedBuild(cfg.WorkloadCfg, cfg.NFSCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.CachedAgedImage(cfg.FsParams, core.Realloc{}, b.Reconstructed, "bench-test|reconstructed", aging.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Fs, cfg
}

func imageBytes(t *testing.T, fsys *ffs.FileSystem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fsys.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHotFilesOnlyReadsImage runs HotFiles from several goroutines on
// one aged image, which it no longer copies: every result must equal a
// serial run's, and the image must come out unchanged — consistent,
// with the same layout score and the same saved bytes.
func TestHotFilesOnlyReadsImage(t *testing.T) {
	img, cfg := agedMicro(t)
	from := cfg.WorkloadCfg.Days - cfg.HotWindow
	before, score := imageBytes(t, img), img.LayoutScore()
	want, err := bench.HotFiles(img, cfg.DiskParams, from)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([]bench.HotResult, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = bench.HotFiles(img, cfg.DiskParams, from)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("goroutine %d: result differs from the serial run", i)
		}
	}
	if err := img.Check(); err != nil {
		t.Errorf("image inconsistent after HotFiles: %v", err)
	}
	if img.LayoutScore() != score {
		t.Errorf("layout score moved: %v → %v", score, img.LayoutScore())
	}
	if !bytes.Equal(imageBytes(t, img), before) {
		t.Error("saved image bytes changed")
	}
}

// TestHotFilesRepeatedMatchesLoop checks the restructured repeat
// against its definition: one HotFiles call per run, the platter's
// initial phase stepped by period·i/runs, summarized in run order.
func TestHotFilesRepeatedMatchesLoop(t *testing.T) {
	img, cfg := agedMicro(t)
	from := cfg.WorkloadCfg.Days - cfg.HotWindow
	const runs = 10
	got, err := bench.HotFilesRepeated(img, cfg.DiskParams, from, runs)
	if err != nil {
		t.Fatal(err)
	}
	var reads, writes []float64
	want := bench.HotRepeatResult{Runs: runs}
	for i := 0; i < runs; i++ {
		p := cfg.DiskParams
		p.InitialSpin = p.Geom.RotationPeriod() * float64(i) / float64(runs)
		r, err := bench.HotFiles(img, p, from)
		if err != nil {
			t.Fatal(err)
		}
		reads, writes = append(reads, r.ReadBps), append(writes, r.WriteBps)
		want.LayoutScore = r.LayoutScore
	}
	want.Read, want.Write = stats.Summarize(reads), stats.Summarize(writes)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("HotFilesRepeated = %+v\nloop of HotFiles = %+v", got, want)
	}
}

// Benchmarks regenerating each of the paper's tables and figures at
// the Quick scale (60 simulated days, 128 MB file system), so the whole
// suite runs in minutes. cmd/repro performs the same experiments at the
// paper's full scale. Each benchmark reports its exhibit's headline
// metric alongside the timing.
//
// Hot-path micro-benchmarks live in internal/perfbench and are driven
// here through BenchmarkHotPaths, so `go test -bench` and
// cmd/perfbench measure the same registered operations on the same
// fixtures and cannot drift apart.
package ffsage_test

import (
	"sort"
	"sync"
	"testing"
	"time"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/experiments"
	"ffsage/internal/perfbench"
	"ffsage/internal/runner"
	"ffsage/internal/workload"
)

var (
	suiteOnce sync.Once
	suite     *experiments.Suite
	suiteErr  error
)

// sharedSuite ages the Quick-scale images once; benchmarks that only
// need the aged state reuse it, while aging benchmarks rebuild it per
// iteration.
func sharedSuite(b *testing.B) *experiments.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		suite, suiteErr = experiments.NewSuite(experiments.Quick(1996))
	})
	if suiteErr != nil {
		b.Fatal(suiteErr)
	}
	return suite
}

// BenchmarkHotPaths drives every benchmark registered in
// internal/perfbench — the continuous-benchmarking registry behind
// cmd/perfbench and the committed BENCH_*.json trajectory — as
// testing sub-benchmarks. The fixture, the fixed work units, and the
// measured operations are exactly the ones cmd/perfbench times;
// b.ReportMetric surfaces the same derived rates (ops/s, MB/s).
func BenchmarkHotPaths(b *testing.B) {
	fx, err := perfbench.NewFixture(1996)
	if err != nil {
		b.Fatal(err)
	}
	for _, bm := range perfbench.All() {
		b.Run(bm.Name, func(b *testing.B) {
			inst, err := bm.Setup(fx)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if err := inst.Op(); err != nil {
					b.Fatal(err)
				}
			}
			elapsed := time.Since(start)
			if inst.Units > 1 {
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N)/float64(inst.Units), "ns/unit")
			}
			if inst.Metrics != nil && b.N > 0 && elapsed > 0 {
				medianSec := elapsed.Seconds() / float64(b.N)
				m := inst.Metrics(medianSec)
				names := make([]string, 0, len(m))
				for name := range m {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					b.ReportMetric(m[name], name)
				}
			}
		})
	}
}

// BenchmarkFig1AgingValidation regenerates Figure 1: the ground-truth
// ("real") and reconstructed ("simulated") agings.
func BenchmarkFig1AgingValidation(b *testing.B) {
	cfg := experiments.Quick(1996)
	w, err := workload.BuildWorkload(cfg.WorkloadCfg, cfg.NFSCfg)
	if err != nil {
		b.Fatal(err)
	}
	var realFinal, simFinal float64
	for i := 0; i < b.N; i++ {
		realRes, err := aging.Replay(cfg.FsParams, core.Original{}, w.Reference.GroundTruth, aging.Options{})
		if err != nil {
			b.Fatal(err)
		}
		simRes, err := aging.Replay(cfg.FsParams, core.Original{}, w.Reconstructed, aging.Options{})
		if err != nil {
			b.Fatal(err)
		}
		realFinal, simFinal = realRes.LayoutByDay.Final(), simRes.LayoutByDay.Final()
	}
	b.ReportMetric(realFinal, "layout-real")
	b.ReportMetric(simFinal, "layout-sim")
}

// BenchmarkFig2PolicyAging regenerates Figure 2: the same workload aged
// under both allocation policies.
func BenchmarkFig2PolicyAging(b *testing.B) {
	cfg := experiments.Quick(1996)
	w, err := workload.BuildWorkload(cfg.WorkloadCfg, cfg.NFSCfg)
	if err != nil {
		b.Fatal(err)
	}
	var o, r float64
	for i := 0; i < b.N; i++ {
		or, err := aging.Replay(cfg.FsParams, core.Original{}, w.Reconstructed, aging.Options{})
		if err != nil {
			b.Fatal(err)
		}
		rr, err := aging.Replay(cfg.FsParams, core.Realloc{}, w.Reconstructed, aging.Options{})
		if err != nil {
			b.Fatal(err)
		}
		o, r = or.LayoutByDay.Final(), rr.LayoutByDay.Final()
	}
	b.ReportMetric(o, "layout-ffs")
	b.ReportMetric(r, "layout-realloc")
}

// BenchmarkFig3LayoutBySize regenerates Figure 3 from the aged images.
func BenchmarkFig3LayoutBySize(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var worst float64
	for i := 0; i < b.N; i++ {
		orig, realloc := s.Fig3()
		worst = 1
		for j := range orig {
			if realloc[j].Files > 0 && realloc[j].Score < worst {
				worst = realloc[j].Score
			}
		}
	}
	b.ReportMetric(worst, "min-bucket-score")
}

// BenchmarkFig4SequentialIO regenerates Figure 4: the sequential
// create/write + read sweep on both aged images.
func BenchmarkFig4SequentialIO(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var gain96 float64
	for i := 0; i < b.N; i++ {
		s := *s // shallow copy discards the sweep memo each iteration
		d, err := s.Fig4()
		if err != nil {
			b.Fatal(err)
		}
		for j := range d.Orig {
			if d.Orig[j].FileSize == 96<<10 {
				gain96 = d.Realloc[j].ReadBps/d.Orig[j].ReadBps - 1
			}
		}
	}
	b.ReportMetric(100*gain96, "%read-gain@96KB")
}

// BenchmarkFig5BenchLayout regenerates Figure 5: layout of the
// benchmark-created files at the paper's most sensitive size.
func BenchmarkFig5BenchLayout(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var score float64
	for i := 0; i < b.N; i++ {
		r, err := bench.SequentialIO(s.AgedRealloc.Fs, s.Cfg.DiskParams, 56<<10, s.Cfg.BenchTotal, s.Days())
		if err != nil {
			b.Fatal(err)
		}
		score = r.LayoutScore
	}
	b.ReportMetric(score, "layout@56KB")
}

// BenchmarkTable2HotFiles regenerates Table 2: the hot-file benchmark
// on both images.
func BenchmarkTable2HotFiles(b *testing.B) {
	s := sharedSuite(b)
	from := s.Days() - s.Cfg.HotWindow
	b.ResetTimer()
	var readGain float64
	for i := 0; i < b.N; i++ {
		o, err := bench.HotFiles(s.AgedFFS.Fs, s.Cfg.DiskParams, from)
		if err != nil {
			b.Fatal(err)
		}
		r, err := bench.HotFiles(s.AgedRealloc.Fs, s.Cfg.DiskParams, from)
		if err != nil {
			b.Fatal(err)
		}
		readGain = r.ReadBps/o.ReadBps - 1
	}
	b.ReportMetric(100*readGain, "%read-gain")
}

// BenchmarkFig6HotLayout regenerates Figure 6: hot files' layout by
// size on both images.
func BenchmarkFig6HotLayout(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var agg float64
	for i := 0; i < b.N; i++ {
		_, realloc := s.Fig6()
		blocks, opt := 0, 0.0
		for _, bk := range realloc {
			blocks += bk.Blocks
			opt += bk.Score * float64(bk.Blocks)
		}
		if blocks > 0 {
			agg = opt / float64(blocks)
		}
	}
	b.ReportMetric(agg, "hot-layout-realloc")
}

// BenchmarkTable1Config regenerates the configuration table (trivially
// cheap; included for per-exhibit completeness).
func BenchmarkTable1Config(b *testing.B) {
	s := sharedSuite(b)
	b.ResetTimer()
	var rows int
	for i := 0; i < b.N; i++ {
		rows = len(s.Table1())
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkAblationMaxContig runs the A1 ablation's extreme settings.
func BenchmarkAblationMaxContig(b *testing.B) {
	cfg := experiments.Quick(1996)
	var spread float64
	for i := 0; i < b.N; i++ {
		rs, err := experiments.AblationMaxContig(cfg, []int{1, 7})
		if err != nil {
			b.Fatal(err)
		}
		spread = rs[1].FinalLayout - rs[0].FinalLayout
	}
	b.ReportMetric(spread, "layout-spread")
}

// BenchmarkParallelSweepSpeedup runs the Figure 4 sequential sweep with
// one worker and with the full worker pool, reporting the wall-time
// ratio. The sweep's size points are independent, so on an N-core
// machine the pool approaches N× (≥2× on 4 cores); on a single core
// the ratio is ~1 and the benchmark only demonstrates no regression.
func BenchmarkParallelSweepSpeedup(b *testing.B) {
	s := sharedSuite(b)
	day := s.Days()
	workers := runner.Workers()
	defer runner.SetWorkers(0)
	run := func(n int) time.Duration {
		runner.SetWorkers(n)
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, err := bench.SequentialSweep(s.AgedRealloc.Fs, s.Cfg.DiskParams,
				s.Cfg.BenchSizes, s.Cfg.BenchTotal, day); err != nil {
				b.Fatal(err)
			}
		}
		return time.Since(start)
	}
	b.ResetTimer()
	serial := run(1)
	parallel := run(workers)
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "x-speedup")
	b.ReportMetric(float64(workers), "workers")
}

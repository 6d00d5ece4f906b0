package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/experiments"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/obs"
	"ffsage/internal/runner"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

// inputsPerRun is how many inputs each run generates from its seed. The
// cost of a simulated operation depends on the input by several
// percent, so a run's unit time sums the inputs' median unit times.
const inputsPerRun = 5

// configs returns the run's configurations: Quick at seed + j·2³² for
// each input j. Input 0 is what `repro -quick -seed <seed>` runs, and
// nearby seeds share no input.
func configs(o *options) []experiments.Config {
	cfgs := make([]experiments.Config, inputsPerRun)
	if o.smoke {
		cfgs = cfgs[:2]
	}
	for j := range cfgs {
		s := o.seed + int64(j)<<32
		if o.smoke {
			cfgs[j] = experiments.Micro(s)
		} else {
			cfgs[j] = experiments.Quick(s)
		}
	}
	return cfgs
}

// paperQuick is what a `repro -quick` user waits for: a fresh Suite
// (workload build, three aging arms), every default exhibit, and the obs
// exports.
type paperQuick struct {
	cfgs    []experiments.Config
	inputs  []buildInputs
	s       *experiments.Suite
	ex      paperExhibits
	traced  probeInput
	replays map[string]time.Duration
}

func newPaperQuick(o *options) benchWorkload {
	cfgs := configs(o)
	return &paperQuick{cfgs: cfgs, inputs: make([]buildInputs, len(cfgs))}
}

// paperExhibits are the values the default `repro` report prints.
type paperExhibits struct {
	fig1Real, fig1Sim, fig2FFS, fig2Realloc    stats.Series
	fig3FFS, fig3Realloc, fig6FFS, fig6Realloc []stats.SizeBucket
	fig4                                       *experiments.Fig4Data
	t2FFS, t2Realloc                           bench.HotResult
	repFFS, repRealloc                         bench.HotRepeatResult
	headlines                                  experiments.HeadlineNumbers
}

func (e *paperExhibits) digest() string {
	d := newDigester()
	d.series("fig1.real", e.fig1Real)
	d.series("fig1.sim", e.fig1Sim)
	d.series("fig2.ffs", e.fig2FFS)
	d.series("fig2.realloc", e.fig2Realloc)
	d.buckets("fig3.ffs", e.fig3FFS)
	d.buckets("fig3.realloc", e.fig3Realloc)
	d.sweep("fig4.ffs", e.fig4.Orig)
	d.sweep("fig4.realloc", e.fig4.Realloc)
	d.floats("fig4.raw", e.fig4.RawRead, e.fig4.RawWrite)
	d.hot("table2.ffs", e.t2FFS)
	d.hot("table2.realloc", e.t2Realloc)
	d.hotRepeat("table2.repeat.ffs", e.repFFS)
	d.hotRepeat("table2.repeat.realloc", e.repRealloc)
	d.buckets("fig6.ffs", e.fig6FFS)
	d.buckets("fig6.realloc", e.fig6Realloc)
	d.headlines(e.headlines)
	return d.sum()
}

func (w *paperQuick) inputCount() int { return len(w.cfgs) }

func (w *paperQuick) setup(rec *recorder, parent int, c *unitCheck) error {
	for j, cfg := range w.cfgs {
		if _, err := w.inputs[j].build(rec, parent, cfg, c); err != nil {
			return err
		}
	}
	return nil
}

func (w *paperQuick) unit(rec *recorder, it, key int) (float64, error) {
	experiments.ResetCaches()
	cfg := w.cfgs[key]
	reg := obs.NewRegistry()
	cfg.Obs = reg
	if rec != nil {
		// Age the arms under their own spans, as NewSuite would; NewSuite
		// then finds them in the cache.
		b, err := cachedBuild(rec, it, cfg)
		if err != nil {
			return 0, err
		}
		k := suiteKey(cfg)
		arms := []arm{
			{"ffs", core.Original{}, b.Reconstructed, k + "|reconstructed"},
			{"ffs+realloc", core.Realloc{}, b.Reconstructed, k + "|reconstructed"},
			{"ground-truth", core.Original{}, b.Reference.GroundTruth, k + "|ground-truth"},
		}
		if _, w.replays, err = fanOut(rec, it, "experiments.CachedAgedImage", arms, cachedArm(cfg.FsParams)); err != nil {
			return 0, err
		}
	}
	err := rec.do(it, 0, "experiments", "experiments.NewSuite", func(int) error {
		var err error
		w.s, err = experiments.NewSuite(cfg)
		return err
	})
	if err != nil {
		return 0, err
	}
	s, ex := w.s, &w.ex
	ex.fig1Real, ex.fig1Sim = s.Fig1()
	ex.fig2FFS, ex.fig2Realloc = s.Fig2()
	from := s.Days() - cfg.HotWindow
	steps := []struct {
		layer, name string
		fn          func() error
	}{
		{"layout", "Suite.Fig3", func() error { ex.fig3FFS, ex.fig3Realloc = s.Fig3(); return nil }},
		{"bench", "Suite.Fig4", func() (err error) { ex.fig4, err = s.Fig4(); return }},
		{"bench", "Suite.Table2", func() (err error) { ex.t2FFS, ex.t2Realloc, err = s.Table2(); return }},
		{"bench", "bench.HotFilesRepeated ffs", func() (err error) {
			ex.repFFS, err = bench.HotFilesRepeated(s.AgedFFS.Fs, cfg.DiskParams, from, 10)
			return
		}},
		{"bench", "bench.HotFilesRepeated ffs+realloc", func() (err error) {
			ex.repRealloc, err = bench.HotFilesRepeated(s.AgedRealloc.Fs, cfg.DiskParams, from, 10)
			return
		}},
		{"layout", "Suite.Fig6", func() error { ex.fig6FFS, ex.fig6Realloc = s.Fig6(); return nil }},
		{"layout", "Suite.Headlines", func() (err error) { ex.headlines, err = s.Headlines(); return }},
		{"obs", "Registry.WriteMetrics", func() error { return reg.WriteMetrics(io.Discard) }},
		{"obs", "Registry.WriteEvents", func() error { return reg.WriteEvents(io.Discard) }},
		{"obs", "Registry.WriteSpans", func() error { return reg.WriteSpans(io.Discard) }},
	}
	for _, st := range steps {
		if err := rec.do(it, 0, st.layer, st.name, func(int) error { return st.fn() }); err != nil {
			return 0, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	if rec != nil {
		w.traced = probeInput{cfg: w.cfgs[key], stream: s.Build.Reconstructed, image: s.AgedRealloc,
			build: w.inputs[key].median(), replay: w.replays["ffs+realloc"]}
	}
	return float64(2*len(s.Build.Reconstructed.Ops) + len(s.Build.Reference.GroundTruth.Ops)), nil
}

func (w *paperQuick) check(c *unitCheck, g *gate, key int) {
	s := w.s
	g.digest(c, key, w.ex.digest())
	w.inputs[key].verify(c, s.Build)
	checkImage(c, "ffs", s.AgedFFS.Fs)
	checkImage(c, "ffs+realloc", s.AgedRealloc.Fs)
	checkImage(c, "ground-truth", s.RealFFS.Fs)
}

func (w *paperQuick) release() {
	w.s, w.ex = nil, paperExhibits{}
	experiments.ResetCaches()
}

func (w *paperQuick) probe() probeInput { return w.traced }

func (w *paperQuick) layerText(spans []span) []textLine {
	return armLines("aging.arm_s.", w.replays, spans)
}

// buildInputs generates a configuration's workload during set-up. The
// hashes it records pin down that every iteration's own build produces
// the same streams.
type buildInputs struct {
	times []time.Duration
	hash  [2]uint64
	ops   int
}

func (bi *buildInputs) build(rec *recorder, parent int, cfg experiments.Config, c *unitCheck) (*workload.Build, error) {
	var b *workload.Build
	t0 := time.Now()
	err := rec.do(parent, 0, "workload", "workload.BuildWorkload", func(int) error {
		var err error
		b, err = workload.BuildWorkload(cfg.WorkloadCfg, cfg.NFSCfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	bi.times = append(bi.times, time.Since(t0))
	h := [2]uint64{trace.HashWorkload(b.Reconstructed), trace.HashWorkload(b.Reference.GroundTruth)}
	if len(bi.times) > 1 && h != bi.hash {
		c.failf("workload build is not deterministic across set-up repetitions")
	}
	bi.hash, bi.ops = h, len(b.Reconstructed.Ops)
	return b, nil
}

// verify checks that b's streams are the ones set-up built.
func (bi *buildInputs) verify(c *unitCheck, b *workload.Build) {
	if h := [2]uint64{trace.HashWorkload(b.Reconstructed), trace.HashWorkload(b.Reference.GroundTruth)}; h != bi.hash {
		c.failf("the iteration's workload build differs from set-up's")
	}
}

func (bi *buildInputs) median() time.Duration {
	return time.Duration(median(seconds(bi.times)) * float64(time.Second))
}

// checkImage gates one aged image: consistent, and its incrementally
// kept layout score equal to a full rescan.
func checkImage(c *unitCheck, name string, fs *ffs.FileSystem) {
	if err := fs.Check(); err != nil {
		c.failf("%s image: %v", name, err)
	}
	if got, want := fs.LayoutScore(), layout.FsAggregate(fs); got != want {
		c.failf("%s image: LayoutScore %v, rescan %v", name, got, want)
	}
}

// suiteKey is the key experiments' cache files a workload build under
// (its unexported workloadKey), so the traced fan-out's images are the
// ones NewSuite and Tournament look up.
func suiteKey(cfg experiments.Config) string {
	return fmt.Sprintf("%+v|%+v", cfg.WorkloadCfg, cfg.NFSCfg)
}

func cachedBuild(rec *recorder, parent int, cfg experiments.Config) (*workload.Build, error) {
	var b *workload.Build
	err := rec.do(parent, 0, "workload", "experiments.CachedBuild", func(int) error {
		var err error
		b, err = experiments.CachedBuild(cfg.WorkloadCfg, cfg.NFSCfg)
		return err
	})
	return b, err
}

// arm is one aging replay of a fan-out.
type arm struct {
	name string
	pol  ffs.Policy
	wl   *trace.Workload
	key  string
}

// fanOut ages the arms on the runner, as NewSuite and Tournament do,
// with one span per arm on its own lane. It returns each arm's result
// and wall time.
func fanOut(rec *recorder, parent int, call string, arms []arm, age func(arm) (*aging.Result, error)) ([]*aging.Result, map[string]time.Duration, error) {
	res := make([]*aging.Result, len(arms))
	walls := make([]time.Duration, len(arms))
	fan := rec.start(parent, 0, "runner", "runner.Group")
	g := runner.New(context.Background())
	for i, a := range arms {
		i, a := i, a
		g.Go("age "+a.name, func(context.Context) error {
			t0 := time.Now()
			err := rec.do(fan, i+1, "aging", call+" "+a.name, func(int) error {
				var err error
				res[i], err = age(a)
				return err
			})
			walls[i] = time.Since(t0)
			return err
		})
	}
	_, err := g.Wait()
	rec.end(fan)
	byName := map[string]time.Duration{}
	for i, a := range arms {
		byName[a.name] = walls[i]
	}
	return res, byName, err
}

// cachedArm ages one arm into experiments' cache.
func cachedArm(params ffs.Params) func(arm) (*aging.Result, error) {
	return func(a arm) (*aging.Result, error) {
		return experiments.CachedAgedImage(params, a.pol, a.wl, a.key, aging.Options{})
	}
}

// armLines reports each arm's replay time under prefix+name, and the
// iteration's critical path: its serial stages plus the slowest arm of
// the fan-out.
func armLines(prefix string, replays map[string]time.Duration, spans []span) []textLine {
	var lines []textLine
	var slowest time.Duration
	for _, name := range sortedKeys(replays) {
		d := replays[name]
		lines = append(lines, textLine{prefix + name, d.Seconds(), "s"})
		slowest = max(slowest, d)
	}
	var iter span
	for _, s := range spans {
		if s.Name == "iteration" {
			iter = s
		}
	}
	var serial time.Duration
	for _, s := range spans {
		if s.Parent == iter.ID && s.Name != "runner.Group" {
			serial += s.End - s.Start
		}
	}
	return append(lines, textLine{"experiments.critical_path_s", (serial + slowest).Seconds(), "s"})
}

package main

import (
	"fmt"
	"time"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/experiments"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
)

// hotRuns is how many times aged-read reruns the hot-file benchmark on
// each image per iteration.
const hotRuns = 10

// agedRead is the read side of the Quick images: set-up ages ffs and
// ffs+realloc on each input once per repetition, and each iteration
// runs the benchmarks and the layout exhibits on one input's images. No
// aging is timed.
type agedRead struct {
	cfgs   []experiments.Config
	inputs []buildInputs
	images []agedImages
	ex     agedExhibits
}

// agedImages are one input's aged images and what set-up measured of
// them.
type agedImages struct {
	s       *experiments.Suite
	stream  *trace.Workload
	replay  time.Duration // the ffs+realloc replay of the last set-up
	scores  [2]float64    // the images' layout scores when first checked
	checked bool
}

func newAgedRead(o *options) benchWorkload {
	cfgs := configs(o)
	return &agedRead{cfgs: cfgs, inputs: make([]buildInputs, len(cfgs)), images: make([]agedImages, len(cfgs))}
}

type agedExhibits struct {
	sweepFFS, sweepRealloc []bench.SeqResult
	hotFFS, hotRealloc     [hotRuns]bench.HotResult
	fig3FFS, fig3Realloc   []stats.SizeBucket
	fig6FFS, fig6Realloc   []stats.SizeBucket
	headlines              experiments.HeadlineNumbers
}

func (e *agedExhibits) digest() string {
	d := newDigester()
	d.sweep("fig4.ffs", e.sweepFFS)
	d.sweep("fig4.realloc", e.sweepRealloc)
	for i := range e.hotFFS {
		d.hot("hot.ffs", e.hotFFS[i])
		d.hot("hot.realloc", e.hotRealloc[i])
	}
	d.buckets("fig3.ffs", e.fig3FFS)
	d.buckets("fig3.realloc", e.fig3Realloc)
	d.buckets("fig6.ffs", e.fig6FFS)
	d.buckets("fig6.realloc", e.fig6Realloc)
	d.headlines(e.headlines)
	return d.sum()
}

func (w *agedRead) inputCount() int { return len(w.cfgs) }

func (w *agedRead) setup(rec *recorder, parent int, c *unitCheck) error {
	for j, cfg := range w.cfgs {
		w.images[j] = agedImages{}
		b, err := w.inputs[j].build(rec, parent, cfg, c)
		if err != nil {
			return err
		}
		pols := []arm{{"ffs", core.Original{}, b.Reconstructed, ""}, {"ffs+realloc", core.Realloc{}, b.Reconstructed, ""}}
		res, walls, err := fanOut(rec, parent, "aging.Replay", pols, func(a arm) (*aging.Result, error) {
			return aging.Replay(cfg.FsParams, a.pol, a.wl, aging.Options{})
		})
		if err != nil {
			return err
		}
		// aged-read ages no ground-truth arm: Figure 1's reference line
		// is the ffs image itself, which only Headlines' Fig1RealFinal
		// reads.
		w.images[j] = agedImages{
			s:      &experiments.Suite{Cfg: cfg, AgedFFS: res[0], AgedRealloc: res[1], RealFFS: res[0]},
			stream: b.Reconstructed, replay: walls["ffs+realloc"],
		}
	}
	return nil
}

func (w *agedRead) unit(rec *recorder, it, key int) (float64, error) {
	s, cfg, ex := w.images[key].s, w.cfgs[key], &w.ex
	var requests int64
	addSweep := func(rs []bench.SeqResult) {
		for _, r := range rs {
			requests += r.Disk.Reads + r.Disk.Writes
		}
	}
	// Suite.Fig4 memoizes, so the sweep is called directly.
	sweep := func(name string, dst *[]bench.SeqResult, img *aging.Result) error {
		return rec.do(it, 0, "bench", "bench.SequentialSweep "+name, func(int) error {
			var err error
			*dst, err = bench.SequentialSweep(img.Fs, cfg.DiskParams, cfg.BenchSizes, cfg.BenchTotal, s.Days())
			return err
		})
	}
	if err := sweep("ffs", &ex.sweepFFS, s.AgedFFS); err != nil {
		return 0, err
	}
	if err := sweep("ffs+realloc", &ex.sweepRealloc, s.AgedRealloc); err != nil {
		return 0, err
	}
	addSweep(ex.sweepFFS)
	addSweep(ex.sweepRealloc)
	from := s.Days() - cfg.HotWindow
	for i := 0; i < hotRuns; i++ {
		for _, h := range []struct {
			name string
			dst  *bench.HotResult
			img  *aging.Result
		}{{"ffs", &ex.hotFFS[i], s.AgedFFS}, {"ffs+realloc", &ex.hotRealloc[i], s.AgedRealloc}} {
			err := rec.do(it, 0, "bench", "bench.HotFiles "+h.name, func(int) error {
				var err error
				*h.dst, err = bench.HotFiles(h.img.Fs, cfg.DiskParams, from)
				return err
			})
			if err != nil {
				return 0, err
			}
			requests += h.dst.Disk.Reads + h.dst.Disk.Writes
		}
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"Suite.Fig3", func() error { ex.fig3FFS, ex.fig3Realloc = s.Fig3(); return nil }},
		{"Suite.Fig6", func() error { ex.fig6FFS, ex.fig6Realloc = s.Fig6(); return nil }},
		{"Suite.Headlines", func() (err error) { ex.headlines, err = s.Headlines(); return }},
	}
	for _, st := range steps {
		if err := rec.do(it, 0, "layout", st.name, func(int) error { return st.fn() }); err != nil {
			return 0, fmt.Errorf("%s: %w", st.name, err)
		}
	}
	return float64(requests), nil
}

func (w *agedRead) check(c *unitCheck, g *gate, key int) {
	g.digest(c, key, w.ex.digest())
	im := &w.images[key]
	imgs := []*aging.Result{im.s.AgedFFS, im.s.AgedRealloc}
	if !im.checked {
		// The images are aged once, so they are checked once; later
		// iterations only confirm the benchmarks left them untouched.
		for i, name := range []string{"ffs", "ffs+realloc"} {
			checkImage(c, name, imgs[i].Fs)
			im.scores[i] = imgs[i].Fs.LayoutScore()
		}
		im.checked = true
	}
	for i, img := range imgs {
		if got := img.Fs.LayoutScore(); got != im.scores[i] {
			c.failf("image %d of input %d changed under the benchmarks: layout score %v, was %v", i, key, got, im.scores[i])
		}
	}
}

func (w *agedRead) release() { w.ex = agedExhibits{} }

func (w *agedRead) probe() probeInput {
	im := w.images[0]
	return probeInput{cfg: w.cfgs[0], stream: im.stream, image: im.s.AgedRealloc, build: w.inputs[0].median(), replay: im.replay}
}

func (w *agedRead) layerText([]span) []textLine { return nil }

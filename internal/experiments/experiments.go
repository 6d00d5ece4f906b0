// Package experiments orchestrates the paper's complete evaluation:
// every table and figure has one entry point here, shared by the repro
// binary and the repository's benchmark suite. A Suite holds the
// expensive shared state (the generated workload and the two aged
// images) and computes each exhibit lazily.
package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/core"
	"ffsage/internal/disk"
	"ffsage/internal/faults"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/obs"
	"ffsage/internal/runner"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

// Config scopes a reproduction run. Full is the paper-scale setup;
// Quick is a reduced configuration for fast iteration and the unit
// benchmark suite.
type Config struct {
	Seed        int64
	FsParams    ffs.Params
	WorkloadCfg workload.Config
	NFSCfg      workload.NFSTraceConfig
	DiskParams  disk.Params
	// BenchTotal is the sequential benchmark corpus (32 MB in the
	// paper); BenchSizes the file-size sweep.
	BenchTotal int64
	BenchSizes []int64
	// HotWindow is the hot-set recency window in days (one month).
	HotWindow int
	// Recovery wires fault injection and checkpoint/resume into the
	// three aging arms (cmd/repro's -faults / -checkpoint flags). A
	// non-nil Recovery bypasses the process-wide aged-image cache:
	// faulted or resumed replays are side-effecting and must run.
	Recovery *Recovery
	// Obs, when non-nil, receives the run's deterministic metrics and
	// events: each aging arm's summary under aging.<arm> (published
	// sequentially in arm order after the parallel replays finish, so
	// float accumulation order never depends on scheduling) and the
	// aggregated disk accounting of the Figure 4 sweep and Table 2
	// benchmarks under disk.fig4.* / disk.table2.*.
	Obs *obs.Registry
}

// Recovery configures fault injection and checkpoint/resume for the
// aging replays. Each arm's checkpoint is Dir/<slug>.ckpt, written and
// read by trace.SaveCheckpoint and trace.LoadCheckpoint. The slugs are
// stable: "age-ffs", "age-realloc" and "age-ground-truth" for the
// paper suite, "tournament-<policy slug>" for the tournament.
type Recovery struct {
	// Faults is the injection plan; it is Clone()d into each arm so
	// concurrent arms do not share its one-shot counters.
	Faults *faults.Plan
	// CheckpointEvery checkpoints each arm every k completed simulated
	// days (0 disables).
	CheckpointEvery int
	// Resume starts each arm from its checkpoint in Dir. An arm without
	// one starts fresh; one that does not decode is an error.
	Resume bool
	// Dir holds the checkpoints; ageArms creates it. CheckpointEvery or
	// Resume without a Dir is an error.
	Dir string
}

// Full returns the paper-scale configuration.
func Full(seed int64) Config {
	return Config{
		Seed:        seed,
		FsParams:    ffs.PaperParams(),
		WorkloadCfg: workload.DefaultConfig(seed),
		NFSCfg:      workload.DefaultNFSTraceConfig(seed + 1),
		DiskParams:  disk.PaperParams(),
		BenchTotal:  32 << 20,
		BenchSizes:  bench.PaperSizes(),
		HotWindow:   30,
	}
}

// Quick returns a scaled-down configuration: a 128 MB file system aged
// for 60 days, an 8 MB benchmark corpus, and a coarser size sweep. The
// qualitative effects (policy gap, indirect cliff, hot-set contrast)
// all survive the scaling.
func Quick(seed int64) Config {
	fp := ffs.PaperParams()
	fp.SizeBytes = 128 << 20
	fp.NumCg = 12
	wc := workload.DefaultConfig(seed)
	wc.Days = 60
	wc.NumCg = fp.NumCg
	wc.FsBytes = fp.SizeBytes
	wc.RampDays = 15
	wc.ChurnBytesPerDay = 26 << 20
	wc.ShortPairsPerDay = 180
	wc.LongSize.MaxBytes = 8 << 20
	nc := workload.DefaultNFSTraceConfig(seed + 1)
	nc.PairsPerDay = 150
	kb := func(n int64) int64 { return n << 10 }
	return Config{
		Seed:        seed,
		FsParams:    fp,
		WorkloadCfg: wc,
		NFSCfg:      nc,
		DiskParams:  disk.PaperParams(),
		BenchTotal:  8 << 20,
		BenchSizes:  []int64{kb(16), kb(32), kb(64), kb(96), kb(104), kb(256), kb(1024), kb(4096)},
		HotWindow:   12,
	}
}

// Micro returns a further-scaled-down configuration — a 64 MB file
// system aged for 16 days — sized so that a full workload build plus
// two aged images costs a few seconds. It is the fixture scale of
// internal/perfbench (and of unit tests that need an aged image but
// not the Quick suite's fidelity); the policy gap survives even this
// scaling, but the paper's quantitative claims do not, so Micro is
// never used for exhibit generation.
func Micro(seed int64) Config {
	fp := ffs.PaperParams()
	fp.SizeBytes = 64 << 20
	fp.NumCg = 6
	wc := workload.DefaultConfig(seed)
	wc.Days = 16
	wc.NumCg = fp.NumCg
	wc.FsBytes = fp.SizeBytes
	wc.RampDays = 4
	wc.ChurnBytesPerDay = 13 << 20
	wc.ShortPairsPerDay = 90
	wc.LongSize.MaxBytes = 4 << 20
	nc := workload.DefaultNFSTraceConfig(seed + 1)
	nc.PairsPerDay = 60
	kb := func(n int64) int64 { return n << 10 }
	return Config{
		Seed:        seed,
		FsParams:    fp,
		WorkloadCfg: wc,
		NFSCfg:      nc,
		DiskParams:  disk.PaperParams(),
		BenchTotal:  4 << 20,
		BenchSizes:  []int64{kb(16), kb(64), kb(96), kb(256), kb(1024)},
		HotWindow:   5,
	}
}

// Suite holds the shared state of one reproduction run.
type Suite struct {
	Cfg   Config
	Build *workload.Build

	// AgedFFS and AgedRealloc are replays of the reconstructed aging
	// workload under the two policies — the paper's two test systems.
	AgedFFS     *aging.Result
	AgedRealloc *aging.Result
	// RealFFS replays the ground-truth stream; it stands in for the
	// paper's original file server in Figure 1.
	RealFFS *aging.Result

	fig4   *Fig4Data
	table2 *[2]bench.HotResult
}

// NewSuite generates the workload and ages the three file systems.
// The replays are independent simulations on separate file systems, so
// they run concurrently on the shared runner, each starting on day 0
// while the workload build is still sealing later days; both the
// workload build and the aged images come from the process-wide cache,
// so a second Suite (or an ablation arm with identical inputs) reuses
// them and only pays for an ffs.Clone.
func NewSuite(cfg Config) (*Suite, error) {
	e, recon := reconstructed(cfg.WorkloadCfg, cfg.NFSCfg)
	truth := wlRef{e.truth, workloadKey(cfg.WorkloadCfg, cfg.NFSCfg) + "|ground-truth"}
	suiteArm := func(name string, pol ffs.Policy, wl wlRef) arm {
		return arm{label: "age " + name, slug: "age-" + name, scope: "aging.age-" + name,
			params: cfg.FsParams, policy: pol, wl: wl}
	}
	res, err := ageArms(cfg, []arm{
		suiteArm("ffs", core.Original{}, recon),
		suiteArm("realloc", core.Realloc{}, recon),
		suiteArm("ground-truth", core.Original{}, truth),
	})
	if err != nil {
		return nil, err
	}
	b, err := e.wait()
	if err != nil {
		return nil, err
	}
	return &Suite{Cfg: cfg, Build: b, AgedFFS: res[0], AgedRealloc: res[1], RealFFS: res[2]}, nil
}

// wlRef pairs a workload stream with its cache key.
type wlRef struct {
	src *trace.Stream
	key string
}

// reconstructed starts (or finds) the cached build for wc and nc and
// returns it with a reference to its reconstructed stream, the
// workload every study ages. It does not wait for the build; every
// caller waits for it once its arms are aged, so no build outlives
// the study that started it.
func reconstructed(wc workload.Config, nc workload.NFSTraceConfig) (*buildEntry, wlRef) {
	e := startBuild(wc, nc)
	return e, wlRef{e.recon, workloadKey(wc, nc) + "|reconstructed"}
}

// arm is one aging replay of a fan-out: a file system variant and a
// policy over a workload, plus the names the run is known by.
type arm struct {
	label  string // runner job label and error prefix
	slug   string // names the arm's checkpoint, Recovery.Dir/<slug>.ckpt
	scope  string // obs scope the aged result is published under
	params ffs.Params
	policy ffs.Policy
	wl     wlRef
	// then, when non-nil, runs on the aged image inside the same runner
	// job (the studies' benchmarks and layout scoring).
	then func(*aging.Result) error
}

// ageArms runs the arms concurrently on the shared runner and returns
// their aged results in arm order. Each arm ages through the
// process-wide cache, or — when cfg.Recovery is set — through the
// Recovery wiring: resume from a checkpoint when one is offered,
// otherwise replay from scratch with the arm's private clone of the
// fault plan. With cfg.Obs set, each arm's summary is published after
// the barrier, sequentially in arm order: the metrics are pure
// functions of each arm's (resume-safe) result, so the snapshot is
// identical for every -j level and for resumed runs.
func ageArms(cfg Config, arms []arm) ([]*aging.Result, error) {
	if rec := cfg.Recovery; rec != nil && (rec.CheckpointEvery > 0 || rec.Resume) {
		if rec.Dir == "" {
			return nil, fmt.Errorf("checkpointing or resuming needs a checkpoint directory")
		}
		if err := os.MkdirAll(rec.Dir, 0o777); err != nil {
			return nil, err
		}
	}
	results := make([]*aging.Result, len(arms))
	g := runner.New(context.Background())
	for i, a := range arms {
		g.Go(a.label, func(context.Context) error {
			res, err := a.age(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", a.label, err)
			}
			if a.then != nil {
				if err := a.then(res); err != nil {
					return err
				}
			}
			results[i] = res
			return nil
		})
	}
	if _, err := g.Wait(); err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		for i, a := range arms {
			wl, err := a.wl.src.Whole()
			if err != nil {
				return nil, err
			}
			aging.PublishResult(cfg.Obs.Scope(a.scope), results[i], wl)
		}
	}
	return results, nil
}

// age runs the arm's replay (see ageArms).
func (a arm) age(cfg Config) (*aging.Result, error) {
	var opts aging.Options
	rec := cfg.Recovery
	if rec == nil {
		return cachedAged(a.params, a.policy, a.wl.src, a.wl.key, opts)
	}
	// A checkpoint or a resume names its workload by the hash of the
	// whole stream, so a Recovery arm starts once the build is done.
	wl, err := a.wl.src.Whole()
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		// During-replay incident stream (checkpoints, faults, crashes).
		// Arms write to disjoint scopes, so concurrent arms never share
		// a tracer.
		opts.Obs = cfg.Obs.Scope("aging." + a.slug)
	}
	path := filepath.Join(rec.Dir, a.slug+".ckpt")
	if rec.CheckpointEvery > 0 {
		opts.CheckpointEvery = rec.CheckpointEvery
		opts.Checkpoint = func(cp *trace.Checkpoint) error { return trace.SaveCheckpoint(path, cp) }
	}
	if rec.Resume {
		cp, err := trace.LoadCheckpoint(path)
		if err != nil {
			return nil, fmt.Errorf("resuming %s: %w", a.slug, err)
		}
		if cp != nil {
			// A resumed run finishes the remainder; the original plan's
			// faults already fired and are not replayed.
			return aging.ResumeReplay(a.policy, wl, cp, opts)
		}
	}
	opts.Faults = rec.Faults.Clone()
	return aging.Replay(a.params, a.policy, wl, opts)
}

// Days returns the simulated period length.
func (s *Suite) Days() int { return s.Cfg.WorkloadCfg.Days }

// hotFromDay returns the first day of the hot window.
func (s *Suite) hotFromDay() int { return s.Days() - s.Cfg.HotWindow }

// Fig1 returns the aging-validation series: the "real" system (ground
// truth) and the "simulated" one (snapshot-reconstructed workload),
// both under the original allocator, as in the paper's Figure 1.
func (s *Suite) Fig1() (real, sim stats.Series) {
	return s.RealFFS.LayoutByDay, s.AgedFFS.LayoutByDay
}

// Fig2 returns the aggregate layout series of the two policies over the
// aging period.
func (s *Suite) Fig2() (orig, realloc stats.Series) {
	return s.AgedFFS.LayoutByDay, s.AgedRealloc.LayoutByDay
}

// sizeBuckets returns the x axis of the by-size figures.
func (s *Suite) sizeBuckets() []stats.SizeBucket {
	return stats.PowerOfTwoBuckets(16<<10, 16<<20)
}

// Fig3 returns layout score by file size for the files living on the
// two aged images.
func (s *Suite) Fig3() (orig, realloc []stats.SizeBucket) {
	fpb := s.Cfg.FsParams.FragsPerBlock()
	orig = layout.BySize(layout.AllFiles(s.AgedFFS.Fs), fpb, s.sizeBuckets())
	realloc = layout.BySize(layout.AllFiles(s.AgedRealloc.Fs), fpb, s.sizeBuckets())
	return orig, realloc
}

// Fig4Data is the sequential I/O sweep on both aged images plus the
// raw-device reference lines (bytes/second).
type Fig4Data struct {
	Orig     []bench.SeqResult
	Realloc  []bench.SeqResult
	RawRead  float64
	RawWrite float64
}

// Fig4 runs (once) and returns the sequential benchmark sweep.
func (s *Suite) Fig4() (*Fig4Data, error) {
	if s.fig4 != nil {
		return s.fig4, nil
	}
	day := s.Days()
	orig, err := bench.SequentialSweep(s.AgedFFS.Fs, s.Cfg.DiskParams, s.Cfg.BenchSizes, s.Cfg.BenchTotal, day)
	if err != nil {
		return nil, fmt.Errorf("sweep on ffs image: %w", err)
	}
	re, err := bench.SequentialSweep(s.AgedRealloc.Fs, s.Cfg.DiskParams, s.Cfg.BenchSizes, s.Cfg.BenchTotal, day)
	if err != nil {
		return nil, fmt.Errorf("sweep on realloc image: %w", err)
	}
	s.fig4 = &Fig4Data{
		Orig:     orig,
		Realloc:  re,
		RawRead:  bench.RawThroughput(s.Cfg.FsParams.SizeBytes, s.Cfg.DiskParams, s.Cfg.BenchTotal, false),
		RawWrite: bench.RawThroughput(s.Cfg.FsParams.SizeBytes, s.Cfg.DiskParams, s.Cfg.BenchTotal, true),
	}
	if s.Cfg.Obs != nil {
		// Published once (the sweep is memoized); sweep results are
		// indexed by size, so this aggregation order is fixed.
		disk.PublishStats(s.Cfg.Obs.Scope("disk.fig4.ffs"), AggregateSeqStats(orig))
		disk.PublishStats(s.Cfg.Obs.Scope("disk.fig4.realloc"), AggregateSeqStats(re))
		publishSweepSpans(s.Cfg.Obs.Scope("disk.fig4.ffs"), "sweep", seqSplits(orig))
		publishSweepSpans(s.Cfg.Obs.Scope("disk.fig4.realloc"), "sweep", seqSplits(re))
	}
	return s.fig4, nil
}

// seqSplits flattens a sweep into the span publisher's point shape.
func seqSplits(rs []bench.SeqResult) []spanPoint {
	pts := make([]spanPoint, len(rs))
	for i, r := range rs {
		pts[i] = spanPoint{
			name:  "point",
			attrs: []obs.Attr{obs.I("size", r.FileSize), obs.F("read_bps", r.ReadBps), obs.F("write_bps", r.WriteBps)},
			stats: r.Disk,
		}
	}
	return pts
}

// spanPoint is one top-level unit of a benchmark's span timeline.
type spanPoint struct {
	name  string
	attrs []obs.Attr
	stats disk.Stats
}

// publishSweepSpans renders a benchmark's disk accounting as a span
// hierarchy on "<scope>.spans", time in simulated disk seconds laid
// end to end: one root span for the whole run, one span per point, and
// one child span per request class whose width is exactly the seconds
// the attribution matrix charges that class — so the root's length
// equals the disk model's total service time bit for bit. Everything
// is a pure function of the memoized results, published once in point
// order, keeping the stream byte-identical across worker counts and
// crash/resume.
func publishSweepSpans(sc *obs.Scope, root string, pts []spanPoint) {
	tr := sc.Tracer("spans", obs.SpanLines)
	tr.Start(0, root, obs.I("points", int64(len(pts))))
	t := 0.0
	for _, p := range pts {
		tr.Start(t, p.name, p.attrs...)
		for c := disk.ReqClass(0); c < disk.NumReqClasses; c++ {
			ts := p.stats.Attr.Class(c)
			if ts.Count == 0 {
				continue
			}
			tr.Start(t, disk.ClassLabel(c),
				obs.I("requests", ts.Count),
				obs.F("seek_s", ts.Seek), obs.F("rot_s", ts.Rot),
				obs.F("xfer_s", ts.Transfer), obs.F("ovhd_s", ts.Overhead))
			t += ts.Total()
			tr.End(t)
		}
		tr.End(t)
	}
	tr.End(t, obs.F("total_s", t))
}

// AggregateSeqStats folds a sweep's per-point disk accounting into one
// Stats, in point order. The time totals are recomputed from the merged
// attribution matrix (disk.Stats.Add), so they still reconcile exactly.
func AggregateSeqStats(rs []bench.SeqResult) disk.Stats {
	var agg disk.Stats
	for _, r := range rs {
		agg = agg.Add(r.Disk)
	}
	return agg
}

// Fig5 returns the layout scores of the benchmark-created files, one
// point per swept size (it shares Fig4's run).
func (s *Suite) Fig5() (orig, realloc []bench.SeqResult, err error) {
	d, err := s.Fig4()
	if err != nil {
		return nil, nil, err
	}
	return d.Orig, d.Realloc, nil
}

// Table2 runs (once) the hot-file benchmark on both images. With
// Cfg.Obs set the first call also publishes both runs' disk accounting;
// later calls (repro's table and its A9 cache study) share that run.
func (s *Suite) Table2() (orig, realloc bench.HotResult, err error) {
	if s.table2 != nil {
		return s.table2[0], s.table2[1], nil
	}
	orig, err = bench.HotFiles(s.AgedFFS.Fs, s.Cfg.DiskParams, s.hotFromDay())
	if err != nil {
		return
	}
	realloc, err = bench.HotFiles(s.AgedRealloc.Fs, s.Cfg.DiskParams, s.hotFromDay())
	if err != nil {
		return
	}
	s.table2 = &[2]bench.HotResult{orig, realloc}
	if s.Cfg.Obs != nil {
		disk.PublishStats(s.Cfg.Obs.Scope("disk.table2.ffs"), orig.Disk)
		disk.PublishStats(s.Cfg.Obs.Scope("disk.table2.realloc"), realloc.Disk)
		publishSweepSpans(s.Cfg.Obs.Scope("disk.table2.ffs"), "hotfiles", hotSplits(orig))
		publishSweepSpans(s.Cfg.Obs.Scope("disk.table2.realloc"), "hotfiles", hotSplits(realloc))
	}
	return
}

// hotSplits adapts the hot-file benchmark to the span publisher: one
// point covering the whole run.
func hotSplits(r bench.HotResult) []spanPoint {
	return []spanPoint{{
		name: "hot",
		attrs: []obs.Attr{
			obs.I("files", int64(r.NFiles)),
			obs.I("bytes", r.TotalBytes),
			obs.F("read_bps", r.ReadBps), obs.F("write_bps", r.WriteBps),
		},
		stats: r.Disk,
	}}
}

// Fig6 returns the hot files' layout by size on both images (the
// sequential-benchmark overlay comes from Fig5).
func (s *Suite) Fig6() (orig, realloc []stats.SizeBucket) {
	fpb := s.Cfg.FsParams.FragsPerBlock()
	orig = layout.BySize(layout.HotFiles(s.AgedFFS.Fs, s.hotFromDay()), fpb, s.sizeBuckets())
	realloc = layout.BySize(layout.HotFiles(s.AgedRealloc.Fs, s.hotFromDay()), fpb, s.sizeBuckets())
	return orig, realloc
}

// Table1Row is one line of the benchmark-configuration table.
type Table1Row struct{ Section, Name, Value string }

// Table1 reproduces the configuration table from the model parameters
// actually in use.
func (s *Suite) Table1() []Table1Row {
	g := s.Cfg.DiskParams.Geom
	fp := s.Cfg.FsParams
	mb := func(b int64) string { return fmt.Sprintf("%d MB", b>>20) }
	return []Table1Row{
		{"Disk", "Disk Type", "Seagate ST32430N (model)"},
		{"Disk", "Total Disk Space", fmt.Sprintf("%.1f GB", float64(g.TotalBytes())/1e9)},
		{"Disk", "Rotational Speed", fmt.Sprintf("%d RPM", g.RPM)},
		{"Disk", "Sector Size", fmt.Sprintf("%d Bytes", g.SectorSize)},
		{"Disk", "Cylinders", fmt.Sprintf("%d", g.Cylinders)},
		{"Disk", "Heads", fmt.Sprintf("%d", g.Heads)},
		{"Disk", "Sectors per Track", fmt.Sprintf("%d (average)", g.SectorsPerTrack)},
		{"Disk", "Track Buffer", fmt.Sprintf("%d KB", s.Cfg.DiskParams.TrackBuffer>>10)},
		{"Disk", "Average Seek", fmt.Sprintf("%.0f ms", s.Cfg.DiskParams.Seek.Time(g.Cylinders/3)*1e3)},
		{"Disk", "Max Transfer", fmt.Sprintf("%d KB", s.Cfg.DiskParams.MaxTransfer>>10)},
		{"File System", "Size", mb(fp.SizeBytes)},
		{"File System", "Fragment Size", fmt.Sprintf("%d KB", fp.FragSize>>10)},
		{"File System", "Block Size", fmt.Sprintf("%d KB", fp.BlockSize>>10)},
		{"File System", "Max. Cluster Size", fmt.Sprintf("%d KB", fp.ClusterBytes()>>10)},
		{"File System", "Rotational Gap", fmt.Sprintf("%d", fp.RotDelay)},
		{"File System", "Cylinder Groups", fmt.Sprintf("%d", fp.NumCg)},
		{"File System", "Heads (fs notion)", fmt.Sprintf("%d", fp.LogicalHeads)},
		{"File System", "Sectors per Track (fs notion)", fmt.Sprintf("%d", fp.LogicalSectors)},
	}
}

// HeadlineNumbers are the paper's summary statistics for quick
// comparison (Sections 4 and 5).
type HeadlineNumbers struct {
	Day1Orig, Day1Realloc   float64
	FinalOrig, FinalRealloc float64
	// NonOptimalImprovement is the reduction in non-optimally
	// allocated blocks (paper: 56.8%).
	NonOptimalImprovement float64
	// SeekReduction is the drop in intra-file disk seeks on the aged
	// images (the paper's §7 claim: "more than 50%").
	SeekReduction float64
	SeeksOrig     int
	SeeksRealloc  int
	// Fig1RealFinal / Fig1SimFinal are the validation endpoints
	// (paper: 0.68 real vs 0.77 simulated).
	Fig1RealFinal, Fig1SimFinal float64
}

// Headlines computes the summary comparison numbers. It errors instead
// of panicking when an aging series is empty (a zero-day or truncated
// run has no final layout to compare).
func (s *Suite) Headlines() (HeadlineNumbers, error) {
	o, r := s.Fig2()
	realSeries, sim := s.Fig1()
	if len(o) == 0 || len(r) == 0 || len(realSeries) == 0 || len(sim) == 0 {
		return HeadlineNumbers{}, fmt.Errorf("experiments: empty aging series (%d/%d/%d/%d days); headline numbers need at least one completed day",
			len(o), len(r), len(realSeries), len(sim))
	}
	nonOptO := 1 - o.Final()
	nonOptR := 1 - r.Final()
	improvement := 0.0
	if nonOptO > 0 {
		improvement = (nonOptO - nonOptR) / nonOptO
	}
	fpb := s.Cfg.FsParams.FragsPerBlock()
	seeksO := layout.IntraFileSeeks(layout.AllFiles(s.AgedFFS.Fs), fpb)
	seeksR := layout.IntraFileSeeks(layout.AllFiles(s.AgedRealloc.Fs), fpb)
	seekRed := 0.0
	if seeksO > 0 {
		seekRed = float64(seeksO-seeksR) / float64(seeksO)
	}
	return HeadlineNumbers{
		Day1Orig:              o.At(o[0].Day),
		Day1Realloc:           r.At(r[0].Day),
		FinalOrig:             o.Final(),
		FinalRealloc:          r.Final(),
		NonOptimalImprovement: improvement,
		SeekReduction:         seekRed,
		SeeksOrig:             seeksO,
		SeeksRealloc:          seeksR,
		Fig1RealFinal:         realSeries.Final(),
		Fig1SimFinal:          sim.Final(),
	}, nil
}

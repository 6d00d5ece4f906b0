// Package repro renders the reproduction report of Smith & Seltzer,
// "A Comparison of FFS Disk Allocation Policies" (USENIX 1996): every
// table and figure of the paper, the studies beyond it and the policy
// tournament, each printed next to the paper's values. One table of
// exhibits, in report order, drives the report: it gives the valid
// -only keys, whether the paper Suite is built, and the order of the
// sections. cmd/repro is its command line.
package repro

import (
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"ffsage/internal/bench"
	"ffsage/internal/disk"
	"ffsage/internal/experiments"
	"ffsage/internal/faults"
	"ffsage/internal/ffs"
	"ffsage/internal/obs"
	"ffsage/internal/policy"
	"ffsage/internal/runner"
	"ffsage/internal/stats"
)

// Options carries the command line; cmd/repro binds one flag to each
// field.
type Options struct {
	Seed  int64
	Quick bool
	Days  int    // 0: the scale's default
	Only  string // comma-separated -only keys
	// The studies beyond the paper's exhibits.
	Ablations, Profiles, BusStudy bool
	// The tournament's policies: all, or comma-separated names.
	Policies string
	// Fault injection into, and checkpoints of, the aging replays.
	Faults    string
	CkptEvery int
	CkptDir   string
	Resume    bool
	// Output files; "" writes none.
	MDPath, SVGDir, Metrics, Events, Spans, SpansJSONL string
}

// An exhibit is one entry of the report: a section, a group of
// sections, or (-svg) a set of files.
type exhibit struct {
	name string // its -only key or, for a study, the flag that turns it on
	// on selects the exhibit whatever -only says. Exhibits without it
	// are the paper's, which also run when -only names nothing.
	on     func(*Options) bool
	suite  bool // reads the paper Suite
	render func(*env) error
}

// exhibits is the report, in order. The Fig 4 and Table 2 renders
// publish their runs' obs streams on first use, so this order also
// fixes the metrics, event and span snapshots.
var exhibits = []exhibit{
	{name: "table1", suite: true, render: table1},
	{name: "fig1", suite: true, render: fig1},
	{name: "fig2", suite: true, render: fig2},
	{name: "fig3", suite: true, render: fig3},
	{name: "fig4", suite: true, render: fig4},
	{name: "fig5", suite: true, render: fig5},
	{name: "table2", suite: true, render: table2},
	{name: "fig6", suite: true, render: fig6},
	{name: "-ablations", on: func(o *Options) bool { return o.Ablations }, render: ablations},
	{name: "-busstudy", on: func(o *Options) bool { return o.BusStudy }, suite: true, render: busStudy},
	{name: "tournament", on: func(o *Options) bool { return o.Policies != "" }, render: tournament},
	{name: "-profiles", on: func(o *Options) bool { return o.Profiles }, render: profiles},
	{name: "-svg", on: func(o *Options) bool { return o.SVGDir != "" }, suite: true, render: writeSVGs},
}

// Keys returns the valid -only keys, in report order.
func Keys() []string {
	var keys []string
	for _, x := range exhibits {
		if !strings.HasPrefix(x.name, "-") {
			keys = append(keys, x.name)
		}
	}
	return keys
}

// selectExhibits returns the exhibits o selects, in report order, and
// whether any of them reads the paper Suite.
func selectExhibits(o *Options) (xs []*exhibit, suite bool, err error) {
	only := map[string]bool{}
	for _, k := range strings.Split(o.Only, ",") {
		if k = strings.ToLower(strings.TrimSpace(k)); k == "" {
			continue
		}
		if !slices.Contains(Keys(), k) {
			return nil, false, fmt.Errorf("-only: unknown exhibit %q (valid: %s)", k, strings.Join(Keys(), ","))
		}
		only[k] = true
	}
	all := len(only) == 0
	for i := range exhibits {
		x := &exhibits[i]
		if only[x.name] || x.on != nil && x.on(o) || x.on == nil && all {
			xs = append(xs, x)
			suite = suite || x.suite
		}
	}
	return xs, suite, nil
}

// env is what an exhibit renders from: the report's sinks, the run's
// options and configuration, and the paper Suite when a selected
// exhibit reads it.
type env struct {
	report
	o     *Options
	cfg   experiments.Config
	scale string
	s     *experiments.Suite
}

// Run renders the exhibits o selects to stdout (and the -md report),
// then writes the requested snapshots and the timing footer.
func Run(o Options, stdout io.Writer) error {
	xs, suite, err := selectExhibits(&o)
	if err != nil {
		return err
	}
	e := &env{report: report{out: stdout, md: io.Discard}, o: &o, cfg: experiments.Full(o.Seed), scale: "full (paper) scale"}
	if o.Quick {
		e.cfg, e.scale = experiments.Quick(o.Seed), "quick scale"
	}
	cfg := &e.cfg
	if o.Days > 0 {
		cfg.WorkloadCfg.Days = o.Days
	}
	if cfg.HotWindow >= cfg.WorkloadCfg.Days {
		cfg.HotWindow = cfg.WorkloadCfg.Days / 2
	}
	if cfg.Recovery, err = recoveryConfig(o); err != nil {
		return err
	}
	// Each run publishes into a registry of its own, so a second Run
	// in the same process does not add to the first's counters.
	reg := obs.NewRegistry()
	cfg.Obs = reg

	if o.MDPath != "" {
		f, err := os.Create(o.MDPath)
		if err != nil {
			return err
		}
		defer f.Close()
		e.md = f
		fmt.Fprintf(f, "# Reproduction report (seed %d, %s)\n", o.Seed, e.scale)
	}
	fmt.Fprintf(stdout, "ffsage reproduction: seed %d, %s\n", o.Seed, e.scale)
	if suite {
		fmt.Fprintln(stdout, "building workload and aging three file systems...")
		if e.s, err = experiments.NewSuite(e.cfg); err != nil {
			return err
		}
		ref := e.s.Build.Reference
		e.section("Workload")
		e.text("ground truth:  %v", ref.GroundTruth.Summarize())
		e.text("reconstructed: %v (replayed by the aging tool)", e.s.Build.Reconstructed.Summarize())
		e.text("paper:         ~800,000 operations writing 48.6 GB over ten months")
		e.text("end state: %d live files, utilization %.0f%% (paper: 8,774 files)",
			ref.EndLiveFiles, 100*float64(ref.EndUsedBytes)/float64(cfg.WorkloadCfg.FsBytes))
	}
	for _, x := range xs {
		if err := x.render(e); err != nil {
			return err
		}
	}
	if o.MDPath != "" {
		fmt.Fprintf(stdout, "\nmarkdown report written to %s\n", o.MDPath)
	}
	for _, snap := range []struct {
		path string
		dump func(io.Writer) error
		msg  string
	}{
		{o.Metrics, reg.WriteMetrics, "\nmetrics snapshot written to %s\n"},
		{o.Events, reg.WriteEvents, "event streams written to %s\n"},
		{o.Spans, reg.WriteChromeTrace, "span trace written to %s (load in chrome://tracing or Perfetto)\n"},
		{o.SpansJSONL, reg.WriteSpans, "span streams written to %s\n"},
	} {
		if snap.path == "" {
			continue
		}
		f, err := os.Create(snap.path)
		if err != nil {
			return err
		}
		err = snap.dump(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, snap.msg, snap.path)
	}
	timingFooter(stdout)
	return nil
}

// report fans output to stdout and a markdown file (io.Discard
// without -md). The two sinks share content; the markdown sink wraps
// tables in code fences so the report renders as written.
type report struct {
	out io.Writer
	md  io.Writer
}

// emit writes out to stdout and md to the markdown sink.
func (r *report) emit(out, md string) {
	io.WriteString(r.out, out)
	io.WriteString(r.md, md)
}

func (r *report) section(title string) { r.emit("\n=== "+title+" ===\n", "\n## "+title+"\n\n") }

func (r *report) text(format string, args ...interface{}) {
	t := fmt.Sprintf(format, args...)
	r.emit(t+"\n", t+"\n\n")
}

// show renders a section: its title, a table and, unless note is
// empty, a note formatted with args.
func (r *report) show(title string, lines []string, note string, args ...interface{}) {
	r.section(title)
	t := strings.Join(lines, "\n") + "\n"
	r.emit(t, "```text\n"+t+"```\n")
	if note != "" {
		r.text(note, args...)
	}
}

func table1(e *env) error {
	var lines []string
	for _, row := range e.s.Table1() {
		lines = append(lines, fmt.Sprintf("  %-12s %-30s %s", row.Section, row.Name, row.Value))
	}
	e.show("Table 1: Benchmark Configuration", lines, "")
	return nil
}

func fig1(e *env) error {
	realS, sim := e.s.Fig1()
	e.show("Figure 1: Aggregate Layout Score Over Time — Real vs Simulated",
		seriesTable([]string{"real", "simulated"}, []stats.Series{realS, sim}, e.s.Days()),
		"final: real %.3f, simulated %.3f (paper: 0.68 real, 0.77 simulated; the"+
			" reconstruction loses intra-day churn, so it ages less)",
		realS.FinalOr(math.NaN()), sim.FinalOr(math.NaN()))
	return nil
}

func fig2(e *env) error {
	o, re := e.s.Fig2()
	h, err := e.s.Headlines()
	if err != nil {
		return err
	}
	e.show("Figure 2: Aggregate Layout Score Over Time — FFS vs FFS+Realloc",
		seriesTable([]string{"ffs", "ffs+realloc"}, []stats.Series{o, re}, e.s.Days()),
		"day 1:  ffs %.3f, realloc %.3f (paper: 0.924 vs 0.950)", h.Day1Orig, h.Day1Realloc)
	e.text("final:  ffs %.3f, realloc %.3f (paper: 0.766 vs 0.899)", h.FinalOrig, h.FinalRealloc)
	e.text("non-optimal blocks cut by %.1f%% (paper: 56.8%%)", 100*h.NonOptimalImprovement)
	e.text("intra-file disk seeks: %d → %d, a %.0f%% reduction (paper §7: \"more"+
		" than 50%%\")", h.SeeksOrig, h.SeeksRealloc, 100*h.SeekReduction)
	return nil
}

func fig3(e *env) error {
	o, re := e.s.Fig3()
	e.show("Figure 3: Layout Score as a Function of File Size (aged images)", bucketTable(o, re),
		"paper: realloc near-optimal below the 56 KB cluster size; both lines drop"+
			" past 96 KB (the indirect block's mandatory group switch); two-block files dip")
	return nil
}

func fig4(e *env) error {
	d, err := e.s.Fig4()
	if err != nil {
		return err
	}
	e.show("Figure 4: Sequential I/O Performance (MB/s)", fig4Table(d),
		"raw device: read %.2f MB/s, write %.2f MB/s", d.RawRead/1e6, d.RawWrite/1e6)
	e.text("paper: realloc up to 58%% faster reads near 96 KB, 44%% faster writes at" +
		" 64 KB; sharp dip at 104 KB; large realloc writes approach/exceed raw writes")
	lines := append(attributionTable("ffs", experiments.AggregateSeqStats(d.Orig)), "")
	lines = append(lines, attributionTable("ffs+realloc", experiments.AggregateSeqStats(d.Realloc))...)
	e.show("Time attribution: where the Figure 4 sweep's simulated seconds went", lines,
		"rows split each disk request's duration into seek, rotational latency,"+
			" transfer, and controller overhead by service class; the totals row equals"+
			" the disk model's aggregate time counters exactly (not within epsilon —"+
			" the totals are defined as this sum). the realloc image's smaller seek and"+
			" rotation shares are the paper's §5 explanation for its Figure 4 gains")
	return nil
}

func fig5(e *env) error {
	o, re, err := e.s.Fig5()
	if err != nil {
		return err
	}
	lines := []string{fmt.Sprintf("  %10s  %12s  %12s", "size", "ffs", "ffs+realloc")}
	for i := range o {
		lines = append(lines, fmt.Sprintf("  %9dK  %12.3f  %12.3f",
			o[i].FileSize>>10, o[i].LayoutScore, re[i].LayoutScore))
	}
	e.show("Figure 5: Layout of Files Created by the Sequential Benchmark", lines,
		"paper: realloc achieves perfect layout up to 56 KB; most 64–96 KB files"+
			" fully contiguous")
	return nil
}

func table2(e *env) error {
	o, re, err := e.s.Table2()
	if err != nil {
		return err
	}
	// The paper ran each throughput test ten times (sd < 2% of
	// mean); our ten runs sweep the platter's initial phase.
	from := e.s.Days() - e.cfg.HotWindow
	oRep, err := bench.HotFilesRepeated(e.s.AgedFFS.Fs, e.cfg.DiskParams, from, 10)
	if err != nil {
		return err
	}
	reRep, err := bench.HotFilesRepeated(e.s.AgedRealloc.Fs, e.cfg.DiskParams, from, 10)
	if err != nil {
		return err
	}
	ms := func(sm stats.Summary) string {
		return fmt.Sprintf("%.2f±%.0f%%", sm.Mean/1e6, 100*sm.RelStdDev())
	}
	e.show("Table 2: Performance of Recently Modified (Hot) Files", []string{
		fmt.Sprintf("  %-18s %14s %14s   %s", "", "ffs", "ffs+realloc", "paper (ffs → realloc)"),
		fmt.Sprintf("  %-18s %14.2f %14.2f   0.80 → 0.96", "layout score", o.LayoutScore, re.LayoutScore),
		fmt.Sprintf("  %-18s %9s MB/s %9s MB/s   1.65 → 2.18 (+32%%)", "read throughput", ms(oRep.Read), ms(reRep.Read)),
		fmt.Sprintf("  %-18s %9s MB/s %9s MB/s   1.04 → 1.25 (+20%%)", "write throughput", ms(oRep.Write), ms(reRep.Write)),
	}, "ten runs each, sweeping initial rotational phase (paper: ten runs, all"+
		" standard deviations < 2%% of the mean); hot set: %d files (%.1f%% of files,"+
		" %.1f%% of bytes; paper: 929 files = 10.5%%, 19%% of space); read +%.0f%%,"+
		" write +%.0f%%",
		o.NFiles, 100*o.FracFiles, 100*o.FracBytes,
		100*(reRep.Read.Mean/oRep.Read.Mean-1), 100*(reRep.Write.Mean/oRep.Write.Mean-1))
	return nil
}

func fig6(e *env) error {
	ho, hre := e.s.Fig6()
	e.show("Figure 6: Layout Score of Hot Files (vs sequential-benchmark files)", bucketTable(ho, hre),
		"paper: with realloc the hot files' layout nearly matches the sequential"+
			" benchmark's; two-block files score lowest")
	return nil
}

func ablations(e *env) error {
	a1, err := experiments.AblationMaxContig(e.cfg, []int{1, 2, 4, 7, 14})
	if err != nil {
		return err
	}
	e.show("Ablation A1: maxcontig sweep (realloc policy)", ablationTable(a1), "")
	a2, err := experiments.AblationQuirk(e.cfg)
	if err != nil {
		return err
	}
	lines := []string{fmt.Sprintf("  %-28s %14s %12s", "", "2-block score", "final layout")}
	for _, q := range a2 {
		lines = append(lines, fmt.Sprintf("  %-28s %14.3f %12.3f", q.Label, q.TwoBlockScore, q.FinalLayout))
	}
	e.show("Ablation A2: two-block quirk", lines, "")
	a4, err := experiments.AblationClusterFit(e.cfg)
	if err != nil {
		return err
	}
	e.show("Ablation A4: cluster-search fit discipline", ablationTable(a4), "")
	a5, err := experiments.AblationCrossCg(e.cfg)
	if err != nil {
		return err
	}
	e.show("Ablation A5: cross-group cluster search", ablationTable(a5), "")
	return nil
}

// busStudy renders the studies of the aged images behind other host,
// disk and cache paths: A6, A8, A9 and A10.
func busStudy(e *env) error {
	s, cfg := e.s, e.cfg
	rs, err := experiments.BusStudy(s)
	if err != nil {
		return err
	}
	lines := []string{fmt.Sprintf("  %-30s %10s %10s %8s", "host path", "ffs rd", "rlc rd", "gain")}
	for _, b := range rs {
		lines = append(lines, fmt.Sprintf("  %-30s %7.2f MB/s %7.2f MB/s %+6.0f%%",
			b.Label, b.ReadFFS/1e6, b.ReadRealloc/1e6, 100*b.Gain()))
	}
	e.show("Study A6: bus bandwidth and the size of the layout benefit (§5.1)", lines,
		"paper §5.1: the PCI machine's higher bus bandwidth raises the ratio of"+
			" seek time to transfer time, so the same layout improvement buys a larger"+
			" relative speedup than [Seltzer95] measured on a SparcStation 1 (~15%%)")

	crows, err := bench.ClusteringStudy(4<<20, cfg.DiskParams)
	if err != nil {
		return err
	}
	lines = []string{fmt.Sprintf("  %-46s %10s %8s", "world", "read", "layout")}
	for _, row := range crows {
		lines = append(lines, fmt.Sprintf("  %-46s %7.2f MB/s %8.2f", row.Label, row.ReadBps/1e6, row.LayoutScore))
	}
	e.show("Study A8: why clustering — block-at-a-time vs clustered I/O (§1 context)", lines,
		"paper §1: clustering improves on block-at-a-time file systems \"by a"+
			" factor of two or three\" [McVoy90][Seltzer93]; the rotdelay row shows the"+
			" pre-clustering mitigation those papers replaced")

	// Sweep cache sizes around the hot set's footprint so the knee is
	// visible at any scale.
	hot, _, err := s.Table2()
	if err != nil {
		return err
	}
	setMB := hot.TotalBytes >> 20
	sizes := []int64{setMB / 4 << 20, setMB / 2 << 20, setMB << 20, 2 * setMB << 20}
	hrows, err := bench.CacheStudy(s.AgedRealloc.Fs, cfg.DiskParams, s.Days()-cfg.HotWindow, sizes)
	if err != nil {
		return err
	}
	lines = []string{fmt.Sprintf("  %10s %14s %14s %8s", "cache", "pass 1", "pass 2", "hits")}
	for _, row := range hrows {
		lines = append(lines, fmt.Sprintf("  %8dMB %11.2f MB/s %11.2f MB/s %7.0f%%",
			row.CacheBytes>>20, row.FirstPassBps/1e6, row.SecondPassBps/1e6, 100*row.HitRate))
	}
	e.show("Study A9: the buffer cache and the hot set (§5.2 rationale)", lines,
		"paper §5.2: the hot set was chosen because it cannot all fit in the buffer"+
			" cache, so its on-disk layout governs performance; once the cache exceeds the"+
			" set, layout stops mattering and rereads run at memory speed")

	images := map[string]*ffs.FileSystem{"ffs": s.AgedFFS.Fs, "ffs+realloc": s.AgedRealloc.Fs}
	srows, err := bench.SchedulingStudy(images, cfg.DiskParams, s.Days()-cfg.HotWindow)
	if err != nil {
		return err
	}
	lines = []string{fmt.Sprintf("  %-14s %-20s %12s", "image", "queue discipline", "write")}
	for _, row := range srows {
		lines = append(lines, fmt.Sprintf("  %-14s %-20s %9.2f MB/s", row.Image, row.Discipline, row.WriteBps/1e6))
	}
	e.show("Study A10: request scheduling vs layout", lines,
		"sorting alone can even lose to arrival order: it turns long seeks (which"+
			" land at random rotational phase) into short hops that each wait nearly a"+
			" full revolution; only sorting *plus coalescing* — which is exactly what"+
			" the file system's clustering does at allocation time — recovers both"+
			" costs, and it converges to the same ceiling on either image")
	return nil
}

// tournament emits the N-way policy tournament as a section. The
// policies run in registry order for -policies all (or none), in flag
// order otherwise.
func tournament(e *env) error {
	names := policy.Names()
	if spec := e.o.Policies; spec != "" && spec != "all" {
		names = nil
		for _, n := range strings.Split(spec, ",") {
			if n = strings.TrimSpace(n); n != "" {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("-policies %q selects nothing", spec)
		}
	}
	pols, err := experiments.RegisteredPolicies(names...)
	if err != nil {
		return err
	}
	entries, err := experiments.Tournament(e.cfg, pols...)
	if err != nil {
		return err
	}
	var buf strings.Builder
	if err := experiments.WriteTournamentReport(&buf, e.scale, e.cfg.Seed, e.cfg.WorkloadCfg.Days, entries); err != nil {
		return err
	}
	e.show(fmt.Sprintf("Policy tournament: %d-way comparison", len(entries)),
		strings.Split(strings.TrimRight(buf.String(), "\n"), "\n"), "")
	return nil
}

func profiles(e *env) error {
	rs, err := experiments.RunProfiles(e.cfg)
	if err != nil {
		return err
	}
	lines := []string{fmt.Sprintf("  %-10s %8s %8s %7s  %8s %8s  %10s %10s",
		"profile", "ops", "GB", "files", "lay ffs", "lay rlc", "hotrd ffs", "hotrd rlc")}
	for _, p := range rs {
		lines = append(lines, fmt.Sprintf("  %-10s %8d %8.1f %7d  %8.3f %8.3f  %7.2f MB/s %7.2f MB/s",
			p.Profile, p.Ops, float64(p.BytesWritten)/(1<<30), p.EndFiles,
			p.LayoutFFS, p.LayoutRealloc, p.HotReadFFS/1e6, p.HotReadRealloc/1e6))
	}
	e.show("Study A7: workload profiles (the paper's §6 future work)", lines,
		"news spools fragment catastrophically under either policy; databases are"+
			" insensitive to the allocator; home-directory patterns are where realloc pays")
	return nil
}

// attributionTable renders one image's per-class time attribution. The
// "all" row sums the class rows in class order — by construction (see
// disk.Attribution.Totals) it equals the disk model's SeekTime /
// RotTime / TransferTime / OverheadTime counters bit for bit.
func attributionTable(label string, st disk.Stats) []string {
	lines := []string{
		fmt.Sprintf("  %-12s %10s %10s %10s %10s %10s %10s", label, "requests", "seek s", "rot s", "xfer s", "ovhd s", "total s"),
	}
	var all disk.TimeSplit
	for c := disk.ReqClass(0); c < disk.NumReqClasses; c++ {
		t := st.Attr.Class(c)
		all.Count += t.Count
		lines = append(lines, fmt.Sprintf("  %-12s %10d %10.3f %10.3f %10.3f %10.3f %10.3f",
			disk.ClassLabel(c), t.Count, t.Seek, t.Rot, t.Transfer, t.Overhead, t.Total()))
	}
	lines = append(lines, fmt.Sprintf("  %-12s %10d %10.3f %10.3f %10.3f %10.3f %10.3f",
		"all", all.Count, st.SeekTime, st.RotTime, st.TransferTime, st.OverheadTime,
		st.SeekTime+st.RotTime+st.TransferTime+st.OverheadTime))
	return lines
}

func ablationTable(rs []experiments.AblationResult) []string {
	lines := []string{fmt.Sprintf("  %-28s %12s %14s %14s %10s",
		"", "final layout", "96KB bench lay", "96KB read MB/s", "moves")}
	for _, a := range rs {
		lines = append(lines, fmt.Sprintf("  %-28s %12.3f %14.3f %14.2f %10d",
			a.Label, a.FinalLayout, a.BenchLayout96, a.BenchRead96/1e6, a.ClusterMoves))
	}
	return lines
}

// seriesTable renders layout-over-time series at ~12 sample days.
func seriesTable(names []string, series []stats.Series, days int) []string {
	step := max(days/12, 1)
	header := "  day   "
	for _, n := range names {
		header += fmt.Sprintf("%12s", n)
	}
	lines := []string{header}
	for d := 0; d < days; d += step {
		row := fmt.Sprintf("  %4d  ", d+1)
		for _, s := range series {
			row += fmt.Sprintf("%12.3f", s.AtOr(d, math.NaN()))
		}
		lines = append(lines, row)
	}
	row := fmt.Sprintf("  %4d  ", days)
	for _, s := range series {
		row += fmt.Sprintf("%12.3f", s.FinalOr(math.NaN()))
	}
	return append(lines, row)
}

func bucketTable(orig, realloc []stats.SizeBucket) []string {
	lines := []string{fmt.Sprintf("  %10s  %7s %7s %8s   %7s %7s %8s",
		"size", "files", "score", "(ffs)", "files", "score", "(rlc)")}
	for i := range orig {
		if orig[i].Files == 0 && realloc[i].Files == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("  %10s  %7d %7.3f %8s   %7d %7.3f %8s",
			orig[i].Label, orig[i].Files, orig[i].Score, "",
			realloc[i].Files, realloc[i].Score, ""))
	}
	return lines
}

func fig4Table(d *experiments.Fig4Data) []string {
	lines := []string{fmt.Sprintf("  %10s  %10s %10s %8s  %10s %10s %8s",
		"size", "ffs wr", "rlc wr", "Δwr", "ffs rd", "rlc rd", "Δrd")}
	idx := make([]int, len(d.Orig))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return d.Orig[idx[a]].FileSize < d.Orig[idx[b]].FileSize })
	mb := func(x float64) float64 { return x / 1e6 }
	for _, i := range idx {
		o, rr := d.Orig[i], d.Realloc[i]
		lines = append(lines, fmt.Sprintf("  %9dK  %10.2f %10.2f %+7.0f%%  %10.2f %10.2f %+7.0f%%",
			o.FileSize>>10, mb(o.WriteBps), mb(rr.WriteBps), 100*(rr.WriteBps/o.WriteBps-1),
			mb(o.ReadBps), mb(rr.ReadBps), 100*(rr.ReadBps/o.ReadBps-1)))
	}
	return lines
}

// recoveryConfig translates the -faults/-checkpoint flags into the
// experiment suite's Recovery: one checkpoint file per aging arm in
// CkptDir.
func recoveryConfig(o Options) (*experiments.Recovery, error) {
	if o.Faults == "" && o.CkptEvery == 0 && !o.Resume {
		return nil, nil
	}
	rec := &experiments.Recovery{CheckpointEvery: o.CkptEvery, Resume: o.Resume, Dir: o.CkptDir}
	if o.Faults != "" {
		plan, err := faults.Parse(o.Faults)
		if err != nil {
			return nil, err
		}
		rec.Faults = plan
	}
	return rec, nil
}

// timingFooter prints the stages (workload builds, which the aging
// arms replaying their sealed days overlap), the
// runner's per-job telemetry and the artifact caches' hit/miss tallies
// to stdout only — never the markdown report or the metrics snapshot,
// both of which stay byte-identical for any -j and across
// checkpoint/resume (cache traffic and wall time do not).
func timingFooter(w io.Writer) {
	bh, bm, ah, am := experiments.CacheCounts()
	if bh+bm+ah+am > 0 {
		fmt.Fprintf(w, "\n--- caches ---\n  workload builds: %d hit, %d miss\n  aged images:     %d hit, %d miss\n",
			bh, bm, ah, am)
	}
	stages, jobs := runner.Stages(), runner.Telemetry()
	if len(stages)+len(jobs) == 0 {
		return
	}
	fmt.Fprintf(w, "\n--- timing (jobs: %d, stages: %d, workers=%d) ---\n", len(jobs), len(stages), runner.Workers())
	line := func(st runner.Stat) {
		status := ""
		if st.Err != nil {
			status = "  ERR: " + st.Err.Error()
		}
		fmt.Fprintf(w, "  %-40s %10v %10s%s\n",
			st.Label, st.Wall.Round(time.Millisecond), fmtBytes(st.AllocBytes), status)
	}
	for _, st := range stages {
		line(st)
	}
	var wall time.Duration
	var alloc uint64
	for _, st := range jobs {
		line(st)
		wall += st.Wall
		alloc += st.AllocBytes
	}
	fmt.Fprintf(w, "  %-40s %10v %10s\n", "total (sum over jobs)", wall.Round(time.Millisecond), fmtBytes(alloc))
}

func fmtBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

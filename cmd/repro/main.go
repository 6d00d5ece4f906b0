// Command repro regenerates every table and figure of Smith & Seltzer,
// "A Comparison of FFS Disk Allocation Policies" (USENIX 1996), against
// the simulated substrate, printing paper-reported values next to the
// measured ones.
//
// Usage:
//
//	repro [-seed N] [-quick] [-days N] [-only fig2,table2,tournament] [-ablations]
//	      [-busstudy] [-profiles] [-policies all|a,b] [-fragments dir] [-j N]
//	      [-faults spec] [-checkpoint-every K] [-checkpoint-dir dir] [-resume]
//	      [-md out.md] [-svg dir] [-metrics out.metrics] [-events out.jsonl]
//	      [-spans out.trace.json] [-spans-jsonl out.spans.jsonl]
//	      [-cpuprofile out.pprof] [-memprofile out.pprof]
//	repro -assemble dir [-seed N] [-quick] [-days N] [-policies all|a,b] [-md out.md]
//	repro -list
//
// The full run ages three 502 MB file systems through a ten-month
// workload and sweeps the sequential benchmark over 18 file sizes on
// two of them; expect roughly a minute. Independent arms run on a
// worker pool bounded by -j (default GOMAXPROCS); the report is
// byte-identical regardless of -j because results are collected in
// submission order. A per-job timing footer goes to stdout (never the
// markdown report).
//
// The policy tournament (-policies, or -only tournament for every
// registered policy) decomposes into per-policy fragments: -fragments
// writes one <slug>.frag per policy, so a CI matrix can run one leg per
// policy, and -assemble renders the tournament section from such
// fragments without simulating — the same bytes as a single-process
// run with the same -seed, -quick, -days and -policies. -list prints
// the registered policy names.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
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
	"ffsage/internal/trace"
)

func main() {
	var (
		list       = flag.Bool("list", false, "print the registered policy names, one per line, and exit")
		seed       = flag.Int64("seed", 1996, "workload generation seed")
		quick      = flag.Bool("quick", false, "scaled-down run (60 days, 128 MB)")
		days       = flag.Int("days", 0, "override the aging period in simulated days (0 = the scale's default)")
		only       = flag.String("only", "", "comma-separated subset: "+strings.Join(exhibitKeys, ","))
		ablations  = flag.Bool("ablations", false, "also run the A1/A2/A4/A5 ablations")
		profiles   = flag.Bool("profiles", false, "also run the §6 workload-profile study")
		busStudy   = flag.Bool("busstudy", false, "also run the §5.1 bus-bandwidth study")
		policies   = flag.String("policies", "", "also run the N-way policy tournament: all, or comma-separated registered names")
		fragDir    = flag.String("fragments", "", "also write each tournament policy's report fragment to <dir>/<slug>.frag")
		assemble   = flag.String("assemble", "", "render only the tournament section, from the fragments in this directory, without simulating")
		jobs       = flag.Int("j", 0, "max concurrent jobs (0 = GOMAXPROCS)")
		faultSpec  = flag.String("faults", "", "fault plan for the aging replays, e.g. crash@day:30 or ioerr@alloc:5000 (see internal/faults)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint the aging replays every K simulated days (needs -checkpoint-dir)")
		ckptDir    = flag.String("checkpoint-dir", "", "directory holding aging checkpoints")
		resume     = flag.Bool("resume", false, "resume the aging replays from the checkpoints in -checkpoint-dir")
		mdPath     = flag.String("md", "", "also write a markdown report to this path")
		svgDir     = flag.String("svg", "", "also render the six figures as SVG into this directory")
		metricsOut = flag.String("metrics", "", "write the deterministic metrics snapshot to this file")
		eventsOut  = flag.String("events", "", "write the deterministic event streams (JSONL) to this file")
		spansOut   = flag.String("spans", "", "write the span streams as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
		spansJSONL = flag.String("spans-jsonl", "", "write the span streams as JSONL to this file")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file")
	)
	flag.Parse()
	if *list {
		for _, name := range policy.Names() {
			fmt.Println(name)
		}
		return
	}
	if *jobs > 0 {
		runner.SetWorkers(*jobs)
	}
	runner.CaptureTelemetry(true)
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	err := run(options{seed: *seed, quick: *quick, days: *days, only: *only, ablations: *ablations,
		profiles: *profiles, busStudy: *busStudy, policies: *policies, fragDir: *fragDir, assemble: *assemble,
		faults: *faultSpec, ckptEvery: *ckptEvery, ckptDir: *ckptDir, resume: *resume,
		mdPath: *mdPath, svgDir: *svgDir, metrics: *metricsOut, events: *eventsOut,
		spans: *spansOut, spansJSONL: *spansJSONL})
	if *memProf != "" {
		if perr := writeHeapProfile(*memProf); perr != nil && err == nil {
			err = perr
		}
	}
	if *cpuProf != "" {
		// The deferred stop does not run past os.Exit; flush here too.
		pprof.StopCPUProfile()
	}
	var crash *faults.Crash
	if errors.As(err, &crash) {
		fmt.Fprintf(os.Stderr, "repro: aging stopped at planned %v\n", crash)
		if *ckptDir != "" {
			fmt.Fprintf(os.Stderr, "repro: resume with: repro -resume -checkpoint-dir %s (plus the original flags, minus -faults)\n", *ckptDir)
		}
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// report fans output to stdout and (optionally) a markdown file. The
// two sinks share content; the markdown sink wraps tables in code
// fences so the report renders as written.
type report struct {
	out io.Writer
	md  io.Writer
}

func (r *report) section(title string) {
	fmt.Fprintf(r.out, "\n=== %s ===\n", title)
	if r.md != nil {
		fmt.Fprintf(r.md, "\n## %s\n\n", title)
	}
}

func (r *report) text(format string, args ...interface{}) {
	fmt.Fprintf(r.out, format+"\n", args...)
	if r.md != nil {
		fmt.Fprintf(r.md, format+"\n\n", args...)
	}
}

func (r *report) table(lines []string) {
	for _, l := range lines {
		fmt.Fprintln(r.out, l)
	}
	if r.md != nil {
		fmt.Fprintln(r.md, "```text")
		for _, l := range lines {
			fmt.Fprintln(r.md, l)
		}
		fmt.Fprintln(r.md, "```")
	}
}

// options carries the command line.
type options struct {
	seed       int64
	quick      bool
	days       int
	only       string
	ablations  bool
	profiles   bool
	busStudy   bool
	policies   string
	fragDir    string
	assemble   string
	faults     string
	ckptEvery  int
	ckptDir    string
	resume     bool
	mdPath     string
	svgDir     string
	metrics    string
	events     string
	spans      string
	spansJSONL string
}

// writeHeapProfile dumps an up-to-date heap profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// recoveryConfig translates the -faults/-checkpoint flags into the
// experiment suite's Recovery wiring: one checkpoint file per aging
// arm in ckptDir, written atomically (temp file + rename) so a crash
// mid-checkpoint leaves the previous one intact.
func recoveryConfig(o options) (*experiments.Recovery, error) {
	if o.faults == "" && o.ckptEvery == 0 && !o.resume {
		return nil, nil
	}
	rec := &experiments.Recovery{CheckpointEvery: o.ckptEvery}
	if o.faults != "" {
		plan, err := faults.Parse(o.faults)
		if err != nil {
			return nil, err
		}
		rec.Faults = plan
	}
	if o.ckptEvery > 0 || o.resume {
		if o.ckptDir == "" {
			return nil, fmt.Errorf("-checkpoint-every/-resume need -checkpoint-dir")
		}
		if err := os.MkdirAll(o.ckptDir, 0o777); err != nil {
			return nil, err
		}
	}
	ckptPath := func(arm string) string { return filepath.Join(o.ckptDir, arm+".ckpt") }
	if o.ckptEvery > 0 {
		rec.Sink = func(arm string) func(*trace.Checkpoint) error {
			return func(cp *trace.Checkpoint) error {
				tmp, err := os.CreateTemp(o.ckptDir, arm+".tmp*")
				if err != nil {
					return err
				}
				if err := trace.WriteCheckpoint(tmp, cp); err != nil {
					tmp.Close()
					os.Remove(tmp.Name())
					return err
				}
				if err := tmp.Close(); err != nil {
					os.Remove(tmp.Name())
					return err
				}
				return os.Rename(tmp.Name(), ckptPath(arm))
			}
		}
	}
	if o.resume {
		rec.Resume = func(arm string) (*trace.Checkpoint, error) {
			f, err := os.Open(ckptPath(arm))
			if os.IsNotExist(err) {
				return nil, nil // no checkpoint yet: start fresh
			}
			if err != nil {
				return nil, err
			}
			defer f.Close()
			cp, err := trace.ReadCheckpoint(f)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", ckptPath(arm), err)
			}
			return cp, nil
		}
	}
	return rec, nil
}

// paperExhibits are the -only keys of the paper's tables and figures,
// in report order. Every one of them reads the experiment suite.
var paperExhibits = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "table2"}

// exhibitKeys are the valid -only keys.
var exhibitKeys = append(slices.Clip(paperExhibits), "tournament")

// parseOnly turns the -only list into a set of exhibit keys, rejecting
// any key that names no exhibit.
func parseOnly(spec string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, k := range strings.Split(spec, ",") {
		if k = strings.ToLower(strings.TrimSpace(k)); k == "" {
			continue
		}
		if !slices.Contains(exhibitKeys, k) {
			return nil, fmt.Errorf("-only: unknown exhibit %q (valid: %s)", k, strings.Join(exhibitKeys, ","))
		}
		want[k] = true
	}
	return want, nil
}

func run(o options) error {
	seed, quick, ablations, mdPath := o.seed, o.quick, o.ablations, o.mdPath
	want, err := parseOnly(o.only)
	if err != nil {
		return err
	}
	if o.assemble != "" {
		if slices.ContainsFunc(paperExhibits, func(k string) bool { return want[k] }) ||
			ablations || o.profiles || o.busStudy || o.svgDir != "" || o.fragDir != "" {
			return fmt.Errorf("-assemble renders only the tournament section; it takes no other exhibit, study or -fragments")
		}
		want["tournament"] = true
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }
	needSuite := o.busStudy || o.svgDir != "" || slices.ContainsFunc(paperExhibits, sel)

	cfg := experiments.Full(seed)
	scale := "full (paper) scale"
	if quick {
		cfg = experiments.Quick(seed)
		scale = "quick scale"
	}
	if o.days > 0 {
		cfg.WorkloadCfg.Days = o.days
	}
	if cfg.HotWindow >= cfg.WorkloadCfg.Days {
		cfg.HotWindow = cfg.WorkloadCfg.Days / 2
	}
	rec, err := recoveryConfig(o)
	if err != nil {
		return err
	}
	cfg.Recovery = rec
	cfg.Obs = obs.Default

	r := &report{out: os.Stdout}
	if mdPath != "" {
		f, err := os.Create(mdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		r.md = f
		fmt.Fprintf(f, "# Reproduction report (seed %d, %s)\n", seed, scale)
	}

	fmt.Printf("ffsage reproduction: seed %d, %s\n", seed, scale)
	var s *experiments.Suite
	if needSuite {
		fmt.Println("building workload and aging three file systems...")
		if s, err = experiments.NewSuite(cfg); err != nil {
			return err
		}
		gt := s.Build.Reference.GroundTruth.Summarize()
		rc := s.Build.Reconstructed.Summarize()
		r.section("Workload")
		r.text("ground truth:  %v", gt)
		r.text("reconstructed: %v (replayed by the aging tool)", rc)
		r.text("paper:         ~800,000 operations writing 48.6 GB over ten months")
		r.text("end state: %d live files, utilization %.0f%% (paper: 8,774 files)",
			s.Build.Reference.EndLiveFiles,
			100*float64(s.Build.Reference.EndUsedBytes)/float64(cfg.WorkloadCfg.FsBytes))
	}

	if sel("table1") {
		r.section("Table 1: Benchmark Configuration")
		var lines []string
		rows := s.Table1()
		for _, row := range rows {
			lines = append(lines, fmt.Sprintf("  %-12s %-30s %s", row.Section, row.Name, row.Value))
		}
		r.table(lines)
	}

	if sel("fig1") {
		r.section("Figure 1: Aggregate Layout Score Over Time — Real vs Simulated")
		realS, sim := s.Fig1()
		r.table(seriesTable([]string{"real", "simulated"}, []stats.Series{realS, sim}, s.Days()))
		r.text("final: real %.3f, simulated %.3f (paper: 0.68 real, 0.77 simulated; the"+
			" reconstruction loses intra-day churn, so it ages less)",
			realS.FinalOr(math.NaN()), sim.FinalOr(math.NaN()))
	}

	if sel("fig2") {
		r.section("Figure 2: Aggregate Layout Score Over Time — FFS vs FFS+Realloc")
		o, re := s.Fig2()
		r.table(seriesTable([]string{"ffs", "ffs+realloc"}, []stats.Series{o, re}, s.Days()))
		h, err := s.Headlines()
		if err != nil {
			return err
		}
		r.text("day 1:  ffs %.3f, realloc %.3f (paper: 0.924 vs 0.950)", h.Day1Orig, h.Day1Realloc)
		r.text("final:  ffs %.3f, realloc %.3f (paper: 0.766 vs 0.899)", h.FinalOrig, h.FinalRealloc)
		r.text("non-optimal blocks cut by %.1f%% (paper: 56.8%%)", 100*h.NonOptimalImprovement)
		r.text("intra-file disk seeks: %d → %d, a %.0f%% reduction (paper §7: \"more"+
			" than 50%%\")", h.SeeksOrig, h.SeeksRealloc, 100*h.SeekReduction)
	}

	if sel("fig3") {
		r.section("Figure 3: Layout Score as a Function of File Size (aged images)")
		o, re := s.Fig3()
		r.table(bucketTable(o, re))
		r.text("paper: realloc near-optimal below the 56 KB cluster size; both lines drop" +
			" past 96 KB (the indirect block's mandatory group switch); two-block files dip")
	}

	var fig4 *experiments.Fig4Data
	if sel("fig4") || sel("fig5") {
		if fig4, err = s.Fig4(); err != nil {
			return err
		}
	}
	if sel("fig4") {
		r.section("Figure 4: Sequential I/O Performance (MB/s)")
		r.table(fig4Table(fig4))
		r.text("raw device: read %.2f MB/s, write %.2f MB/s", fig4.RawRead/1e6, fig4.RawWrite/1e6)
		r.text("paper: realloc up to 58%% faster reads near 96 KB, 44%% faster writes at" +
			" 64 KB; sharp dip at 104 KB; large realloc writes approach/exceed raw writes")

		r.section("Time attribution: where the Figure 4 sweep's simulated seconds went")
		var lines []string
		lines = append(lines, attributionTable("ffs", experiments.AggregateSeqStats(fig4.Orig))...)
		lines = append(lines, "")
		lines = append(lines, attributionTable("ffs+realloc", experiments.AggregateSeqStats(fig4.Realloc))...)
		r.table(lines)
		r.text("rows split each disk request's duration into seek, rotational latency," +
			" transfer, and controller overhead by service class; the totals row equals" +
			" the disk model's aggregate time counters exactly (not within epsilon —" +
			" the totals are defined as this sum). the realloc image's smaller seek and" +
			" rotation shares are the paper's §5 explanation for its Figure 4 gains")
	}

	if sel("fig5") {
		r.section("Figure 5: Layout of Files Created by the Sequential Benchmark")
		var lines []string
		lines = append(lines, fmt.Sprintf("  %10s  %12s  %12s", "size", "ffs", "ffs+realloc"))
		for i := range fig4.Orig {
			lines = append(lines, fmt.Sprintf("  %9dK  %12.3f  %12.3f",
				fig4.Orig[i].FileSize>>10, fig4.Orig[i].LayoutScore, fig4.Realloc[i].LayoutScore))
		}
		r.table(lines)
		r.text("paper: realloc achieves perfect layout up to 56 KB; most 64–96 KB files" +
			" fully contiguous")
	}

	if sel("table2") {
		r.section("Table 2: Performance of Recently Modified (Hot) Files")
		o, re, err := s.Table2()
		if err != nil {
			return err
		}
		// The paper ran each throughput test ten times (sd < 2% of
		// mean); our ten runs sweep the platter's initial phase.
		from := s.Days() - cfg.HotWindow
		oRep, err := bench.HotFilesRepeated(s.AgedFFS.Fs, cfg.DiskParams, from, 10)
		if err != nil {
			return err
		}
		reRep, err := bench.HotFilesRepeated(s.AgedRealloc.Fs, cfg.DiskParams, from, 10)
		if err != nil {
			return err
		}
		ms := func(sm stats.Summary) string {
			return fmt.Sprintf("%.2f±%.0f%%", sm.Mean/1e6, 100*sm.RelStdDev())
		}
		r.table([]string{
			fmt.Sprintf("  %-18s %14s %14s   %s", "", "ffs", "ffs+realloc", "paper (ffs → realloc)"),
			fmt.Sprintf("  %-18s %14.2f %14.2f   0.80 → 0.96", "layout score", o.LayoutScore, re.LayoutScore),
			fmt.Sprintf("  %-18s %9s MB/s %9s MB/s   1.65 → 2.18 (+32%%)", "read throughput", ms(oRep.Read), ms(reRep.Read)),
			fmt.Sprintf("  %-18s %9s MB/s %9s MB/s   1.04 → 1.25 (+20%%)", "write throughput", ms(oRep.Write), ms(reRep.Write)),
		})
		r.text("ten runs each, sweeping initial rotational phase (paper: ten runs, all"+
			" standard deviations < 2%% of the mean); hot set: %d files (%.1f%% of files,"+
			" %.1f%% of bytes; paper: 929 files = 10.5%%, 19%% of space); read +%.0f%%,"+
			" write +%.0f%%",
			o.NFiles, 100*o.FracFiles, 100*o.FracBytes,
			100*(reRep.Read.Mean/oRep.Read.Mean-1), 100*(reRep.Write.Mean/oRep.Write.Mean-1))
	}

	if sel("fig6") {
		r.section("Figure 6: Layout Score of Hot Files (vs sequential-benchmark files)")
		ho, hre := s.Fig6()
		r.table(bucketTable(ho, hre))
		r.text("paper: with realloc the hot files' layout nearly matches the sequential" +
			" benchmark's; two-block files score lowest")
	}

	if ablations {
		if err := runAblations(r, cfg); err != nil {
			return err
		}
	}
	if o.busStudy {
		r.section("Study A6: bus bandwidth and the size of the layout benefit (§5.1)")
		rs, err := experiments.BusStudy(s)
		if err != nil {
			return err
		}
		lines := []string{fmt.Sprintf("  %-30s %10s %10s %8s", "host path", "ffs rd", "rlc rd", "gain")}
		for _, b := range rs {
			lines = append(lines, fmt.Sprintf("  %-30s %7.2f MB/s %7.2f MB/s %+6.0f%%",
				b.Label, b.ReadFFS/1e6, b.ReadRealloc/1e6, 100*b.Gain()))
		}
		r.table(lines)
		r.text("paper §5.1: the PCI machine's higher bus bandwidth raises the ratio of" +
			" seek time to transfer time, so the same layout improvement buys a larger" +
			" relative speedup than [Seltzer95] measured on a SparcStation 1 (~15%%)")
	}
	if o.busStudy {
		r.section("Study A8: why clustering — block-at-a-time vs clustered I/O (§1 context)")
		rows, err := bench.ClusteringStudy(4<<20, cfg.DiskParams)
		if err != nil {
			return err
		}
		lines := []string{fmt.Sprintf("  %-46s %10s %8s", "world", "read", "layout")}
		for _, row := range rows {
			lines = append(lines, fmt.Sprintf("  %-46s %7.2f MB/s %8.2f",
				row.Label, row.ReadBps/1e6, row.LayoutScore))
		}
		r.table(lines)
		r.text("paper §1: clustering improves on block-at-a-time file systems \"by a" +
			" factor of two or three\" [McVoy90][Seltzer93]; the rotdelay row shows the" +
			" pre-clustering mitigation those papers replaced")
	}
	if o.busStudy {
		r.section("Study A9: the buffer cache and the hot set (§5.2 rationale)")
		// Sweep cache sizes around the hot set's footprint so the knee
		// is visible at any scale.
		hot, _, terr := s.Table2()
		if terr != nil {
			return terr
		}
		setMB := hot.TotalBytes >> 20
		sizes := []int64{setMB / 4 << 20, setMB / 2 << 20, setMB << 20, 2 * setMB << 20}
		rows, err := bench.CacheStudy(s.AgedRealloc.Fs, cfg.DiskParams, s.Days()-cfg.HotWindow, sizes)
		if err != nil {
			return err
		}
		lines := []string{fmt.Sprintf("  %10s %14s %14s %8s", "cache", "pass 1", "pass 2", "hits")}
		for _, row := range rows {
			lines = append(lines, fmt.Sprintf("  %8dMB %11.2f MB/s %11.2f MB/s %7.0f%%",
				row.CacheBytes>>20, row.FirstPassBps/1e6, row.SecondPassBps/1e6, 100*row.HitRate))
		}
		r.table(lines)
		r.text("paper §5.2: the hot set was chosen because it cannot all fit in the buffer" +
			" cache, so its on-disk layout governs performance; once the cache exceeds the" +
			" set, layout stops mattering and rereads run at memory speed")
	}
	if o.busStudy {
		r.section("Study A10: request scheduling vs layout")
		rows, err := bench.SchedulingStudy(map[string]*ffs.FileSystem{
			"ffs":         s.AgedFFS.Fs,
			"ffs+realloc": s.AgedRealloc.Fs,
		}, cfg.DiskParams, s.Days()-cfg.HotWindow)
		if err != nil {
			return err
		}
		lines := []string{fmt.Sprintf("  %-14s %-20s %12s", "image", "queue discipline", "write")}
		for _, row := range rows {
			lines = append(lines, fmt.Sprintf("  %-14s %-20s %9.2f MB/s",
				row.Image, row.Discipline, row.WriteBps/1e6))
		}
		r.table(lines)
		r.text("sorting alone can even lose to arrival order: it turns long seeks (which" +
			" land at random rotational phase) into short hops that each wait nearly a" +
			" full revolution; only sorting *plus coalescing* — which is exactly what" +
			" the file system's clustering does at allocation time — recovers both" +
			" costs, and it converges to the same ceiling on either image")
	}
	if o.policies != "" || want["tournament"] {
		if err := runTournament(r, cfg, o, scale); err != nil {
			return err
		}
	}
	if o.profiles {
		r.section("Study A7: workload profiles (the paper's §6 future work)")
		rs, err := experiments.RunProfiles(cfg)
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
		r.table(lines)
		r.text("news spools fragment catastrophically under either policy; databases are" +
			" insensitive to the allocator; home-directory patterns are where realloc pays")
	}
	if o.svgDir != "" {
		if err := writeSVGs(s, o.svgDir); err != nil {
			return err
		}
		fmt.Printf("\nSVG figures written to %s\n", o.svgDir)
	}
	if mdPath != "" {
		fmt.Printf("\nmarkdown report written to %s\n", mdPath)
	}
	if o.metrics != "" {
		if err := writeSnapshot(o.metrics, obs.Default.WriteMetrics); err != nil {
			return err
		}
		fmt.Printf("\nmetrics snapshot written to %s\n", o.metrics)
	}
	if o.events != "" {
		if err := writeSnapshot(o.events, obs.Default.WriteEvents); err != nil {
			return err
		}
		fmt.Printf("event streams written to %s\n", o.events)
	}
	if o.spans != "" {
		if err := writeSnapshot(o.spans, obs.Default.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Printf("span trace written to %s (load in chrome://tracing or Perfetto)\n", o.spans)
	}
	if o.spansJSONL != "" {
		if err := writeSnapshot(o.spansJSONL, obs.Default.WriteSpans); err != nil {
			return err
		}
		fmt.Printf("span streams written to %s\n", o.spansJSONL)
	}
	timingFooter()
	return nil
}

// writeSnapshot creates path and streams one of the registry's
// deterministic dumps into it.
func writeSnapshot(path string, dump func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
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

// timingFooter prints the serial stages (workload builds), the
// runner's per-job telemetry and the artifact caches' hit/miss tallies
// to stdout only — never the markdown report or the metrics snapshot,
// both of which stay byte-identical for any -j and across
// checkpoint/resume (cache traffic and wall time do not).
func timingFooter() {
	bh, bm, ah, am := experiments.CacheCounts()
	if bh+bm+ah+am > 0 {
		fmt.Printf("\n--- caches ---\n")
		fmt.Printf("  workload builds: %d hit, %d miss\n", bh, bm)
		fmt.Printf("  aged images:     %d hit, %d miss\n", ah, am)
	}
	stages, jobs := runner.Stages(), runner.Telemetry()
	if len(stages)+len(jobs) == 0 {
		return
	}
	fmt.Printf("\n--- timing (%d jobs + %d serial, workers=%d) ---\n", len(jobs), len(stages), runner.Workers())
	line := func(st runner.Stat) {
		status := ""
		if st.Err != nil {
			status = "  ERR: " + st.Err.Error()
		}
		fmt.Printf("  %-40s %10v %10s%s\n",
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
	fmt.Printf("  %-40s %10v %10s\n", "total (sum over jobs)", wall.Round(time.Millisecond), fmtBytes(alloc))
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

// selectPolicies resolves the -policies flag to policy names in a
// deterministic order: registry order for "all" (or no flag), flag
// order otherwise.
func selectPolicies(spec string) ([]string, error) {
	if spec == "" || spec == "all" {
		return policy.Names(), nil
	}
	var names []string
	for _, n := range strings.Split(spec, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("-policies %q selects nothing", spec)
	}
	return names, nil
}

// runTournament emits the N-way policy tournament as a section. The
// report is assembled from per-policy fragments, computed here (and
// written to -fragments) or read from -assemble without simulating, so
// a fan-in of single-policy legs reproduces a single-process run byte
// for byte.
func runTournament(r *report, cfg experiments.Config, o options, scale string) error {
	names, err := selectPolicies(o.policies)
	if err != nil {
		return err
	}
	days := cfg.WorkloadCfg.Days
	fragments := make([][]byte, len(names))
	if o.assemble != "" {
		for i, name := range names {
			if fragments[i], err = os.ReadFile(filepath.Join(o.assemble, policy.Slug(name)+".frag")); err != nil {
				return fmt.Errorf("missing fragment for %s: %w", name, err)
			}
		}
	} else {
		pols, err := experiments.RegisteredPolicies(names...)
		if err != nil {
			return err
		}
		entries, err := experiments.Tournament(cfg, pols...)
		if err != nil {
			return err
		}
		if o.fragDir != "" {
			if err := os.MkdirAll(o.fragDir, 0o777); err != nil {
				return err
			}
		}
		for i := range entries {
			fragments[i] = entries[i].Fragment(days)
			if o.fragDir != "" {
				path := filepath.Join(o.fragDir, policy.Slug(names[i])+".frag")
				if err := os.WriteFile(path, fragments[i], 0o666); err != nil {
					return err
				}
			}
		}
	}
	var buf strings.Builder
	if err := experiments.WriteTournamentReport(&buf, scale, cfg.Seed, days, names, fragments); err != nil {
		return err
	}
	r.section(fmt.Sprintf("Policy tournament: %d-way comparison", len(names)))
	r.table(strings.Split(strings.TrimRight(buf.String(), "\n"), "\n"))
	return nil
}

func runAblations(r *report, cfg experiments.Config) error {
	r.section("Ablation A1: maxcontig sweep (realloc policy)")
	a1, err := experiments.AblationMaxContig(cfg, []int{1, 2, 4, 7, 14})
	if err != nil {
		return err
	}
	r.table(ablationTable(a1))

	r.section("Ablation A2: two-block quirk")
	a2, err := experiments.AblationQuirk(cfg)
	if err != nil {
		return err
	}
	var lines []string
	lines = append(lines, fmt.Sprintf("  %-28s %14s %12s", "", "2-block score", "final layout"))
	for _, q := range a2 {
		lines = append(lines, fmt.Sprintf("  %-28s %14.3f %12.3f", q.Label, q.TwoBlockScore, q.FinalLayout))
	}
	r.table(lines)

	r.section("Ablation A4: cluster-search fit discipline")
	a4, err := experiments.AblationClusterFit(cfg)
	if err != nil {
		return err
	}
	r.table(ablationTable(a4))

	r.section("Ablation A5: cross-group cluster search")
	a5, err := experiments.AblationCrossCg(cfg)
	if err != nil {
		return err
	}
	r.table(ablationTable(a5))
	return nil
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
	step := days / 12
	if step < 1 {
		step = 1
	}
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

// Command fsimg is the paper's offline pipeline on files: it builds an
// aging workload, ages a simulated FFS by replaying it, checks and
// repairs the aged image, and reports on it. Each report subcommand is
// one of the paper's views of an aged file system:
//
//	fsimg workload [-seed n] [-days n] [-out file] [-truth file] [-snapshots file] [-text]
//	    simulate the reference file server, take its nightly snapshots,
//	    reconstruct the operation stream from them with the paper's
//	    heuristics and merge in the synthetic NFS short-lived activity
//	    (Section 3.1)
//	fsimg age [-workload file] [-policy name] [-image out.img] [-csv file] [-check n] [-faults plan] [-q]
//	    replay a workload on an empty file system (Section 3.2),
//	    printing the layout score per simulated day; a planned crash
//	    (-faults) still saves the interrupted image, then exits 3
//	fsimg check [-image aged.img] [-repair] [-o out.img] [-metrics file]
//	    check a saved image; -repair runs the fsck-style repair pass:
//	    rebuilding per-group bitmaps and summaries, freeing leaked
//	    fragments, resolving double allocations and torn writes, and
//	    reattaching orphaned files. Exit 0 clean or repaired, 1
//	    inconsistent without -repair, 2 unloadable or unrepairable
//	fsimg layout [-image aged.img] [-hotfrom day]
//	    aggregate layout score, score by file size (Figure 3), and the
//	    free-space run histogram
//	fsimg map [-image aged.img] [-cg n] [-w cols]
//	    ASCII allocation map, one cylinder group at a time:
//	    M metadata   # fully allocated   + partially allocated   . free
//	fsimg seq [-image aged.img] [-total bytes] [-sizes KB,...] [-day d] [-attr]
//	    the sequential I/O sweep (Section 5.1, Figures 4 and 5)
//	fsimg hot [-image aged.img] [-fromday d] [-attr]
//	    the hot-file benchmark (Section 5.2, Table 2 and Figure 6)
//
// seq and hot also take -cpuprofile and -memprofile. -image may also
// name a checkpoint (repro -checkpoint-every, agesrv); the image inside
// is found by its magic. Every subcommand that reads an image loads it
// under the allocation policy it was aged with (the name the image
// records), so check -o keeps that name, and seq's sweep allocates its
// benchmark files the way repro's Figure 4 column for that policy does.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"ffsage/internal/aging"
	"ffsage/internal/bench"
	"ffsage/internal/disk"
	"ffsage/internal/faults"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/obs"
	"ffsage/internal/policy"
	"ffsage/internal/stats"
	"ffsage/internal/trace"
	"ffsage/internal/workload"
)

const usage = "usage: fsimg workload|age|check|layout|map|seq|hot [flags] (fsimg <subcommand> -h lists the flags)"

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fsimg:", err)
	}
	os.Exit(exitCode(err))
}

// exitError is an error that sets fsimg's exit status; any other
// error exits 1.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string { return e.err.Error() }
func (e *exitError) Unwrap() error { return e.err }

// exitCode is the exit status for run's result.
func exitCode(err error) int {
	if ee := (*exitError)(nil); errors.As(err, &ee) {
		return ee.code
	}
	if err != nil {
		return 1
	}
	return 0
}

// subcommands maps each subcommand's name to the function that defines
// its flags on fl and returns its body, which writes its output to w.
var subcommands = map[string]func(fl *flag.FlagSet, w io.Writer) func() error{
	"workload": workloadCmd,
	"age":      ageCmd,
	"check":    checkCmd,
	"layout": func(fl *flag.FlagSet, w io.Writer) func() error {
		hotFrom := fl.Int("hotfrom", -1, "also report files modified on/after this day")
		return onImage(fl, w, func(fsys *ffs.FileSystem, path string) error { return layoutReport(w, fsys, path, *hotFrom) })
	},
	"map": func(fl *flag.FlagSet, w io.Writer) func() error {
		group := fl.Int("cg", -1, "show only this cylinder group (-1 = all)")
		cols := fl.Int("w", 96, "blocks per output row")
		return onImage(fl, w, func(fsys *ffs.FileSystem, path string) error { return mapReport(w, fsys, path, *group, *cols) })
	},
	"seq": func(fl *flag.FlagSet, w io.Writer) func() error {
		total := fl.Int64("total", 32<<20, "benchmark corpus bytes per size point")
		sizes := fl.String("sizes", "", "comma-separated file sizes in KB (default: paper sweep)")
		day := fl.Int("day", 300, "ModDay to stamp benchmark files with")
		attr := fl.Bool("attr", false, "also print the sweep's aggregate time attribution")
		return profiled(fl, onImage(fl, w, func(fsys *ffs.FileSystem, _ string) error {
			return seqReport(w, fsys, *total, *sizes, *day, *attr)
		}))
	},
	"hot": func(fl *flag.FlagSet, w io.Writer) func() error {
		fromDay := fl.Int("fromday", 270, "hot set = files modified on/after this day")
		attr := fl.Bool("attr", false, "also print the benchmark's time attribution")
		return profiled(fl, onImage(fl, w, func(fsys *ffs.FileSystem, _ string) error {
			return hotReport(w, fsys, *fromDay, *attr)
		}))
	},
}

// run parses one subcommand's flags and runs it, writing its output
// to w.
func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	define, ok := subcommands[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q; %s", args[0], usage)
	}
	fl := flag.NewFlagSet("fsimg "+args[0], flag.ExitOnError)
	body := define(fl, w)
	fl.Parse(args[1:])
	if fl.NArg() > 0 {
		// Exit 2, as flag does for a bad flag.
		return &exitError{2, fmt.Errorf("unexpected argument %q (images are given with -image); %s", fl.Arg(0), usage)}
	}
	return body()
}

// workloadCmd builds an aging workload and writes its streams.
func workloadCmd(fl *flag.FlagSet, w io.Writer) func() error {
	seed := fl.Int64("seed", 1996, "generation seed")
	days := fl.Int("days", 300, "simulated days")
	out := fl.String("out", "workload.ffw", "reconstructed workload output")
	truthOut := fl.String("truth", "", "ground-truth stream output")
	snapsOut := fl.String("snapshots", "", "nightly snapshots output")
	asText := fl.Bool("text", false, "write workloads as text")
	return func() error {
		cfg := workload.DefaultConfig(*seed)
		cfg.Days = *days
		b, err := workload.BuildWorkload(cfg, workload.DefaultNFSTraceConfig(*seed+1))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "ground truth:  %v\n", b.Reference.GroundTruth.Summarize())
		fmt.Fprintf(w, "reconstructed: %v\n", b.Reconstructed.Summarize())
		fmt.Fprintf(w, "end state: %d files, %.1f MB used\n",
			b.Reference.EndLiveFiles, float64(b.Reference.EndUsedBytes)/(1<<20))

		encode := trace.WriteWorkload
		if *asText {
			encode = trace.WriteWorkloadText
		}
		outputs := []struct {
			path, what string
			write      func(io.Writer) error
		}{
			{*out, fmt.Sprintf("%d ops", len(b.Reconstructed.Ops)),
				func(f io.Writer) error { return encode(f, b.Reconstructed) }},
			{*truthOut, fmt.Sprintf("%d ops", len(b.Reference.GroundTruth.Ops)),
				func(f io.Writer) error { return encode(f, b.Reference.GroundTruth) }},
			{*snapsOut, fmt.Sprintf("%d snapshots", len(b.Reference.Snapshots)),
				func(f io.Writer) error { return trace.WriteSnapshots(f, b.Reference.Snapshots) }},
		}
		for _, o := range outputs {
			if o.path == "" {
				continue
			}
			if err := writeFile(o.path, o.write); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s (%s)\n", o.path, o.what)
		}
		return nil
	}
}

// ageCmd replays a workload on an empty file system under one policy.
func ageCmd(fl *flag.FlagSet, w io.Writer) func() error {
	wlPath := fl.String("workload", "workload.ffw", "workload file (binary or text)")
	policyName := fl.String("policy", "realloc", "allocation policy (any registered name, e.g. ffs, realloc, ffs+bestfit, ssd)")
	imageOut := fl.String("image", "", "save the aged image here")
	csvOut := fl.String("csv", "", "write day,layout,utilization CSV here")
	checkEvery := fl.Int("check", 0, "run the consistency checker every N days (0 = off)")
	faultSpec := fl.String("faults", "", "fault plan to inject, e.g. tear@op:5000 (see internal/faults)")
	quiet := fl.Bool("q", false, "suppress per-day progress")
	return func() error {
		wl, err := readWorkload(*wlPath)
		if err != nil {
			return err
		}
		pol, err := policy.Resolve(*policyName)
		if err != nil {
			return err
		}
		opts := aging.Options{CheckEvery: *checkEvery}
		if *faultSpec != "" {
			if opts.Faults, err = faults.Parse(*faultSpec); err != nil {
				return err
			}
		}
		if !*quiet {
			opts.Progress = func(day int, score, util float64) {
				fmt.Fprintf(w, "day %3d: layout %.3f  utilization %.2f\n", day+1, score, util)
			}
		}
		res, err := aging.Replay(ffs.PaperParams(), pol, wl, opts)
		if crash := (*faults.Crash)(nil); errors.As(err, &crash) && res != nil {
			// Planned crash: save the interrupted (possibly corrupt)
			// image as-is for check -repair, then signal the crash
			// distinctly.
			if serr := saveImage(w, res.Fs, *imageOut); serr != nil {
				return serr
			}
			return &exitError{3, err}
		}
		if err != nil {
			return err
		}
		// FinalOr: a zero-day workload records no series points.
		fmt.Fprintf(w, "aged %d days under %s: final layout %.3f, utilization %.2f, %d files"+
			" (%d ops skipped, %d for space)\n",
			wl.Days, pol.Name(),
			res.LayoutByDay.FinalOr(math.NaN()), res.UtilByDay.FinalOr(math.NaN()),
			res.Fs.FileCount(), res.SkippedOps, res.NoSpaceOps)

		if *csvOut != "" {
			err := writeFile(*csvOut, func(f io.Writer) error {
				fmt.Fprintln(f, "day,layout,utilization")
				for i, p := range res.LayoutByDay {
					fmt.Fprintf(f, "%d,%.4f,%.4f\n", p.Day+1, p.Value, res.UtilByDay[i].Value)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n", *csvOut)
		}
		return saveImage(w, res.Fs, *imageOut)
	}
}

// readWorkload reads a workload file in the binary format or, when it
// does not start with the binary magic, the text one.
func readWorkload(path string) (*trace.Workload, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	wl, err := trace.ReadWorkload(bytes.NewReader(raw))
	if err != nil && !bytes.HasPrefix(raw, []byte("FFW1")) {
		wl, err = trace.ReadWorkloadText(bytes.NewReader(raw))
	}
	if err != nil {
		return nil, fmt.Errorf("reading workload: %w", err)
	}
	return wl, nil
}

// checkCmd checks, and with -repair repairs, a saved image.
func checkCmd(fl *flag.FlagSet, w io.Writer) func() error {
	path := imageFlag(fl)
	repair := fl.Bool("repair", false, "repair inconsistencies instead of only reporting them")
	out := fl.String("o", "", "write the (repaired) image here")
	metrics := fl.String("metrics", "", "write a metrics snapshot (check outcome, repair action counts) to this file")
	return func() error {
		reg := obs.NewRegistry()
		err := check(w, reg, *path, *repair, *out)
		if *metrics != "" {
			err = errors.Join(err, writeFile(*metrics, reg.WriteMetrics))
		}
		// Exit 1 means inconsistent and not repaired; every other
		// failure (unloadable, unrepairable, unwritable) exits 2.
		if ee := (*exitError)(nil); err != nil && !errors.As(err, &ee) {
			err = &exitError{2, err}
		}
		return err
	}
}

// check reports whether the image at path is consistent and, if it is
// not and repair is set, repairs it. It saves the clean or repaired
// image to out, and counts the outcome in reg.
func check(w io.Writer, reg *obs.Registry, path string, repair bool, out string) error {
	raw, err := readImage(w, path)
	if err != nil {
		return err
	}
	summary := func(fsys *ffs.FileSystem, state string) {
		fmt.Fprintf(w, "%s: %s: %d files, utilization %.1f%%, layout %.3f\n",
			path, state, fsys.FileCount(), 100*fsys.Utilization(), fsys.LayoutScore())
	}
	// First try the strict loader: it validates as it builds and runs
	// Check on the result, so a clean load is a consistent image.
	fsys, err := ffs.LoadSavedImage(bytes.NewReader(raw), policy.Resolve)
	if err == nil {
		reg.Counter("fsck.clean").Inc()
		summary(fsys, "clean")
		return saveImage(w, fsys, out)
	}
	reg.Counter("fsck.inconsistent").Inc()
	fmt.Fprintf(w, "%s: inconsistent: %v\n", path, err)
	if !repair {
		return &exitError{1, errors.New("re-run with -repair to fix")}
	}

	fsys, err = ffs.LoadImageLenient(bytes.NewReader(raw), policy.Resolve)
	if err != nil {
		return fmt.Errorf("image not salvageable: %w", err)
	}
	rep, err := fsys.Repair()
	if err != nil {
		return fmt.Errorf("repair failed: %w", err)
	}
	publishRepair(reg.Scope("fsck.repair"), rep)
	fmt.Fprintf(w, "repaired: %s\n", rep)
	if err := fsys.Check(); err != nil {
		return fmt.Errorf("still inconsistent after repair: %w", err)
	}
	summary(fsys, "now clean")
	return saveImage(w, fsys, out)
}

// publishRepair records the repair pass's action counts.
func publishRepair(sc *obs.Scope, rep *ffs.RepairReport) {
	sc.Counter("orphans_reattached").Add(int64(rep.ReattachedOrphans))
	sc.Counter("files_renamed").Add(int64(rep.RenamedFiles))
	sc.Counter("files_relinked").Add(int64(rep.RelinkedFiles))
	sc.Counter("files_truncated").Add(int64(rep.TruncatedFiles))
	sc.Counter("shapes_fixed").Add(int64(rep.ShapeFixes))
	sc.Counter("leaked_frags").Add(rep.LeakedFrags)
	sc.Counter("phantom_frags").Add(rep.PhantomFrags)
	sc.Counter("groups_rebuilt").Add(int64(rep.GroupsRebuilt))
	sc.Counter("inode_map_fixes").Add(int64(rep.InodeMapFixes))
	if rep.LayoutFixed {
		sc.Counter("layout_fixed").Inc()
	}
}

// imageFlag defines the -image flag of the subcommands that read one.
func imageFlag(fl *flag.FlagSet) *string {
	return fl.String("image", "aged.img", "saved image, or a checkpoint holding one")
}

// onImage defines -image and returns a body that loads that image and
// runs report on it.
func onImage(fl *flag.FlagSet, w io.Writer, report func(fsys *ffs.FileSystem, path string) error) func() error {
	path := imageFlag(fl)
	return func() error {
		raw, err := readImage(w, *path)
		if err != nil {
			return err
		}
		fsys, err := ffs.LoadSavedImage(bytes.NewReader(raw), policy.Resolve)
		if err != nil {
			return err
		}
		return report(fsys, *path)
	}
}

// readImage reads the image saved at path, unwrapping a checkpoint
// when the file holds one (a checkpoint embeds the image as an opaque
// blob). Its bytes are loaded under the policy they record.
func readImage(w io.Writer, path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil || !bytes.HasPrefix(raw, []byte("FFC1")) {
		return raw, err
	}
	cp, err := trace.ReadCheckpoint(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("reading checkpoint: %w", err)
	}
	fmt.Fprintf(w, "%s: checkpoint (day %d, next op %d); using the embedded image\n", path, cp.Day, cp.NextOp)
	return cp.Image, nil
}

// writeFile creates path and fills it with write. Every file fsimg
// writes goes through it, so a failed write or close (a lost write)
// is always reported; write may drop its own write errors, because
// the buffer keeps the first one and Flush returns it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// saveImage writes fsys's image to path, unless path is empty.
func saveImage(w io.Writer, fsys *ffs.FileSystem, path string) error {
	if path == "" {
		return nil
	}
	if err := writeFile(path, fsys.SaveImage); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s\n", path)
	return nil
}

// profiled defines -cpuprofile and -memprofile and returns body run
// under an optional CPU profile and, if body succeeds, followed by an
// optional heap profile.
func profiled(fl *flag.FlagSet, body func() error) func() error {
	cpuPath := fl.String("cpuprofile", "", "write a CPU profile to this file")
	memPath := fl.String("memprofile", "", "write a heap profile to this file")
	return func() error {
		run := body
		if *cpuPath != "" {
			run = func() error {
				return writeFile(*cpuPath, func(f io.Writer) error {
					if err := pprof.StartCPUProfile(f); err != nil {
						return err
					}
					defer pprof.StopCPUProfile()
					return body()
				})
			}
		}
		if err := run(); err != nil || *memPath == "" {
			return err
		}
		return writeFile(*memPath, func(f io.Writer) error {
			runtime.GC()
			return pprof.WriteHeapProfile(f)
		})
	}
}

// printAttribution renders a per-class split of simulated disk time.
func printAttribution(w io.Writer, st disk.Stats) {
	fmt.Fprintf(w, "\ntime attribution (seconds by request class):\n")
	fmt.Fprintf(w, "%12s %10s %10s %10s %10s %10s %10s\n",
		"class", "requests", "seek", "rot", "xfer", "ovhd", "total")
	for c := disk.ReqClass(0); c < disk.NumReqClasses; c++ {
		t := st.Attr.Class(c)
		fmt.Fprintf(w, "%12s %10d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			disk.ClassLabel(c), t.Count, t.Seek, t.Rot, t.Transfer, t.Overhead, t.Total())
	}
	fmt.Fprintf(w, "%12s %10s %10.3f %10.3f %10.3f %10.3f %10.3f\n", "all", "",
		st.SeekTime, st.RotTime, st.TransferTime, st.OverheadTime,
		st.SeekTime+st.RotTime+st.TransferTime+st.OverheadTime)
}

// layoutReport prints the aggregate layout score, the score by file
// size (the paper's Figure 3 view) and the free-space run histogram.
func layoutReport(w io.Writer, fsys *ffs.FileSystem, imagePath string, hotFrom int) error {
	files := layout.AllFiles(fsys)
	score, buckets := layout.AggregateBySize(files, fsys.FragsPerBlock(), stats.PowerOfTwoBuckets(16<<10, 16<<20))
	fmt.Fprintf(w, "%s: %d files, %.1f MB, utilization %.1f%%\n",
		imagePath, len(files), float64(layout.TotalBytes(files))/(1<<20), 100*fsys.Utilization())
	fmt.Fprintf(w, "aggregate layout score: %.3f (%.1f%% of blocks non-optimal)\n",
		layout.FsAggregate(fsys), 100*(1-score))

	fmt.Fprintln(w, "\nlayout score by file size:")
	for _, b := range buckets {
		if b.Files == 0 {
			continue
		}
		fmt.Fprintf(w, "  %8s  %6d files  %8d blocks  %.3f\n", b.Label, b.Files, b.Blocks, b.Score)
	}

	hist, free := fsys.FreeRunHistogram()
	fmt.Fprintf(w, "\nfree space: %d blocks in runs ", free)
	for k := 1; k <= 6; k++ {
		fmt.Fprintf(w, "%d:%d ", k, hist[k])
	}
	fmt.Fprintf(w, "7+:%d\n", hist[7])

	if hotFrom >= 0 {
		hot := layout.HotFiles(fsys, hotFrom)
		if len(hot) == 0 {
			fmt.Fprintf(w, "\nno files modified on or after day %d\n", hotFrom)
			return nil
		}
		fmt.Fprintf(w, "\nhot set (modified ≥ day %d): %d files, %.1f MB, layout %.3f\n",
			hotFrom, len(hot), float64(layout.TotalBytes(hot))/(1<<20),
			layout.Aggregate(hot, fsys.FragsPerBlock()))
	}
	return nil
}

// mapReport draws the allocation maps of every cylinder group, or of
// group alone when it is not -1, cols blocks per row. Long '#' runs
// are clustered files, '.' runs are the free pools the realloc policy
// feeds on, and alternating '#.+.' bands are the crumb fields the
// original policy chops new files across.
func mapReport(w io.Writer, fsys *ffs.FileSystem, imagePath string, group, cols int) error {
	if cols < 8 {
		return fmt.Errorf("width %d too narrow", cols)
	}
	lo, hi := 0, fsys.NumCg()
	if group >= 0 {
		if group >= fsys.NumCg() {
			return fmt.Errorf("cylinder group %d out of range [0,%d)", group, fsys.NumCg())
		}
		lo, hi = group, group+1
	}
	hist, freeBlocks := fsys.FreeRunHistogram()
	fmt.Fprintf(w, "%s: utilization %.1f%%, %d free blocks (runs 1:%d 2:%d 3-6:%d 7+:%d)\n",
		imagePath, 100*fsys.Utilization(), freeBlocks,
		hist[1], hist[2], hist[3]+hist[4]+hist[5]+hist[6], hist[7])
	for cg := lo; cg < hi; cg++ {
		m := fsys.BlockMap(cg)
		free, partial := 0, 0
		for _, s := range m {
			switch s {
			case ffs.BlockFree:
				free++
			case ffs.BlockPartial:
				partial++
			}
		}
		fmt.Fprintf(w, "\ncg %2d: %d blocks, %d free, %d partial\n", cg, len(m), free, partial)
		for row := 0; row < len(m); row += cols {
			end := min(row+cols, len(m))
			line := make([]byte, end-row)
			for i := row; i < end; i++ {
				line[i-row] = byte(m[i])
			}
			fmt.Fprintf(w, "  %5d %s\n", row, line)
		}
	}
	return nil
}

// seqReport runs the sequential sweep: for each file size, create a
// corpus of total bytes, write it in 4 MB units, read it back, and
// report throughput and the created files' layout scores.
func seqReport(w io.Writer, fsys *ffs.FileSystem, total int64, sizesFlag string, day int, attr bool) error {
	sizes := bench.PaperSizes()
	if sizesFlag != "" {
		sizes = sizes[:0]
		for _, s := range strings.Split(sizesFlag, ",") {
			kb, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil {
				return fmt.Errorf("bad size %q: %w", s, err)
			}
			sizes = append(sizes, kb<<10)
		}
	}
	dp := disk.PaperParams()
	fmt.Fprintf(w, "raw device: read %.2f MB/s, write %.2f MB/s\n",
		bench.RawThroughput(fsys.P.SizeBytes, dp, total, false)/1e6,
		bench.RawThroughput(fsys.P.SizeBytes, dp, total, true)/1e6)
	fmt.Fprintf(w, "%10s %8s %12s %12s %8s\n", "size", "files", "write MB/s", "read MB/s", "layout")
	var agg disk.Stats
	for _, size := range sizes {
		r, err := bench.SequentialIO(fsys, dp, size, total, day)
		if err != nil {
			return fmt.Errorf("size %d: %w", size, err)
		}
		fmt.Fprintf(w, "%9dK %8d %12.2f %12.2f %8.3f\n",
			r.FileSize>>10, r.NFiles, r.WriteBps/1e6, r.ReadBps/1e6, r.LayoutScore)
		agg = agg.Add(r.Disk)
	}
	if attr {
		printAttribution(w, agg)
	}
	return nil
}

// hotReport reads and then overwrites every file modified on or after
// fromDay, reporting throughput, the set's layout score and its
// by-size breakdown.
func hotReport(w io.Writer, fsys *ffs.FileSystem, fromDay int, attr bool) error {
	res, err := bench.HotFiles(fsys, disk.PaperParams(), fromDay)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "hot set: %d files (%.1f%% of files), %.1f MB (%.1f%% of bytes)\n",
		res.NFiles, 100*res.FracFiles, float64(res.TotalBytes)/(1<<20), 100*res.FracBytes)
	fmt.Fprintf(w, "layout score:     %.3f\n", res.LayoutScore)
	fmt.Fprintf(w, "read throughput:  %.2f MB/s\n", res.ReadBps/1e6)
	fmt.Fprintf(w, "write throughput: %.2f MB/s\n", res.WriteBps/1e6)
	fmt.Fprintln(w, "\nlayout by size:")
	for _, b := range res.BySize {
		if b.Files == 0 {
			continue
		}
		fmt.Fprintf(w, "  %8s  %6d files  %.3f\n", b.Label, b.Files, b.Score)
	}
	if attr {
		printAttribution(w, res.Disk)
	}
	return nil
}

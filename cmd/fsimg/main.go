// Command fsimg reports on a saved aged image (from agefs, or an
// agesrv/fsck artifact). Each subcommand is one of the paper's views of
// an aged file system:
//
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
// seq and hot also take -cpuprofile and -memprofile. Every subcommand
// loads the image under the allocation policy it was aged with (the
// name the image records), so seq's sweep allocates its benchmark
// files the way repro's Figure 4 column for that policy does.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"ffsage/internal/bench"
	"ffsage/internal/disk"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/policy"
	"ffsage/internal/stats"
)

const usage = "usage: fsimg layout|map|seq|hot [flags] (fsimg <subcommand> -h lists the flags)"

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fsimg:", err)
		os.Exit(1)
	}
}

// run parses one subcommand's flags, loads its image and prints its
// report to w.
func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("%s", usage)
	}
	fl := flag.NewFlagSet("fsimg "+args[0], flag.ExitOnError)
	imagePath := fl.String("image", "aged.img", "file-system image from agefs")
	profiles := func() (cpu, mem *string) {
		return fl.String("cpuprofile", "", "write a CPU profile to this file"),
			fl.String("memprofile", "", "write a heap profile to this file")
	}
	var cpuProf, memProf *string
	var report func(fsys *ffs.FileSystem) error
	switch args[0] {
	case "layout":
		hotFrom := fl.Int("hotfrom", -1, "also report files modified on/after this day")
		report = func(fsys *ffs.FileSystem) error { return layoutReport(w, fsys, *imagePath, *hotFrom) }
	case "map":
		group := fl.Int("cg", -1, "show only this cylinder group (-1 = all)")
		cols := fl.Int("w", 96, "blocks per output row")
		report = func(fsys *ffs.FileSystem) error { return mapReport(w, fsys, *imagePath, *group, *cols) }
	case "seq":
		total := fl.Int64("total", 32<<20, "benchmark corpus bytes per size point")
		sizes := fl.String("sizes", "", "comma-separated file sizes in KB (default: paper sweep)")
		day := fl.Int("day", 300, "ModDay to stamp benchmark files with")
		attr := fl.Bool("attr", false, "also print the sweep's aggregate time attribution")
		cpuProf, memProf = profiles()
		report = func(fsys *ffs.FileSystem) error { return seqReport(w, fsys, *total, *sizes, *day, *attr) }
	case "hot":
		fromDay := fl.Int("fromday", 270, "hot set = files modified on/after this day")
		attr := fl.Bool("attr", false, "also print the benchmark's time attribution")
		cpuProf, memProf = profiles()
		report = func(fsys *ffs.FileSystem) error { return hotReport(w, fsys, *fromDay, *attr) }
	default:
		return fmt.Errorf("unknown subcommand %q; %s", args[0], usage)
	}
	fl.Parse(args[1:])
	body := func() error {
		fsys, err := loadImage(*imagePath)
		if err != nil {
			return err
		}
		return report(fsys)
	}
	if cpuProf == nil {
		return body()
	}
	return profiled(*cpuProf, *memProf, body)
}

// loadImage loads a saved image under the policy it was aged with.
func loadImage(path string) (*ffs.FileSystem, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ffs.LoadSavedImage(f, policy.Resolve)
}

// profiled runs body under an optional CPU profile and, if body
// succeeds, writes an optional heap profile after it.
func profiled(cpuPath, memPath string, body func() error) error {
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	err := body()
	if memPath != "" && err == nil {
		f, ferr := os.Create(memPath)
		if ferr != nil {
			return ferr
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		f.Close()
	}
	return err
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
	fmt.Fprintf(w, "%s: %d files, %.1f MB, utilization %.1f%%\n",
		imagePath, len(files), float64(layout.TotalBytes(files))/(1<<20), 100*fsys.Utilization())
	fmt.Fprintf(w, "aggregate layout score: %.3f (%.1f%% of blocks non-optimal)\n",
		layout.FsAggregate(fsys), 100*layout.NonOptimalFraction(files, fsys.FragsPerBlock()))

	fmt.Fprintln(w, "\nlayout score by file size:")
	buckets := layout.BySize(files, fsys.FragsPerBlock(), stats.PowerOfTwoBuckets(16<<10, 16<<20))
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

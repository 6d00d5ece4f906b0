// Command agefs ages a simulated FFS by replaying a workload produced
// by mkworkload (paper Section 3.2), reporting the aggregate layout
// score per simulated day and optionally saving the aged image for the
// benchmark tools.
package main

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"

	"ffsage/internal/aging"
	"ffsage/internal/faults"
	"ffsage/internal/ffs"
	ffspolicy "ffsage/internal/policy"
	"ffsage/internal/trace"
)

func main() {
	var (
		wlPath   = flag.String("workload", "workload.ffw", "workload file (binary or text)")
		policy   = flag.String("policy", "realloc", "allocation policy (any registered name, e.g. ffs, realloc, ffs+bestfit, ssd)")
		imageOut = flag.String("image", "", "save the aged image here")
		csvOut   = flag.String("csv", "", "write day,layout,utilization CSV here")
		check    = flag.Int("check", 0, "run the consistency checker every N days (0 = off)")
		faultStr = flag.String("faults", "", "fault plan to inject, e.g. tear@op:5000 (see internal/faults)")
		quiet    = flag.Bool("q", false, "suppress per-day progress")
	)
	flag.Parse()
	err := run(*wlPath, *policy, *imageOut, *csvOut, *check, *faultStr, *quiet)
	var crash *faults.Crash
	if errors.As(err, &crash) {
		// The interrupted (possibly corrupt) image was still saved, for
		// fsck -repair; signal the crash distinctly.
		fmt.Fprintln(os.Stderr, "agefs:", err)
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "agefs:", err)
		os.Exit(1)
	}
}

func pickPolicy(name string) (ffs.Policy, error) {
	return ffspolicy.Resolve(name)
}

func run(wlPath, policyName, imageOut, csvOut string, check int, faultStr string, quiet bool) error {
	opts := aging.Options{CheckEvery: check}

	f, err := os.Open(wlPath)
	if err != nil {
		return err
	}
	wl, err := trace.ReadWorkload(f)
	if err != nil {
		// Retry as text.
		if _, serr := f.Seek(0, 0); serr != nil {
			f.Close()
			return err
		}
		wl, err = trace.ReadWorkloadText(f)
	}
	f.Close()
	if err != nil {
		return fmt.Errorf("reading workload: %w", err)
	}

	policy, err := pickPolicy(policyName)
	if err != nil {
		return err
	}
	if faultStr != "" {
		plan, perr := faults.Parse(faultStr)
		if perr != nil {
			return perr
		}
		opts.Faults = plan
	}
	if !quiet {
		opts.Progress = func(day int, score, util float64) {
			fmt.Printf("day %3d: layout %.3f  utilization %.2f\n", day+1, score, util)
		}
	}
	res, err := aging.Replay(ffs.PaperParams(), policy, wl, opts)
	if err != nil {
		var crash *faults.Crash
		if !errors.As(err, &crash) || res == nil {
			return err
		}
		// Planned crash: save the interrupted image as-is (fsck's job),
		// then report the crash through the exit status.
		if imageOut != "" {
			if serr := saveImage(res.Fs, imageOut); serr != nil {
				return serr
			}
		}
		return err
	}
	// FinalOr: a zero-day workload records no series points.
	fmt.Printf("aged %d days under %s: final layout %.3f, utilization %.2f, %d files"+
		" (%d ops skipped, %d for space)\n",
		wl.Days, policy.Name(),
		res.LayoutByDay.FinalOr(math.NaN()), res.UtilByDay.FinalOr(math.NaN()),
		res.Fs.FileCount(), res.SkippedOps, res.NoSpaceOps)

	if csvOut != "" {
		out, err := os.Create(csvOut)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "day,layout,utilization")
		for i := range res.LayoutByDay {
			fmt.Fprintf(out, "%d,%.4f,%.4f\n",
				res.LayoutByDay[i].Day+1, res.LayoutByDay[i].Value, res.UtilByDay[i].Value)
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", csvOut)
	}
	if imageOut != "" {
		if err := saveImage(res.Fs, imageOut); err != nil {
			return err
		}
	}
	return nil
}

func saveImage(fsys *ffs.FileSystem, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fsys.SaveImage(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

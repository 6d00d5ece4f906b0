// Command perfbench runs the repository's continuous-benchmarking
// suite (internal/perfbench) and maintains the BENCH_*.json
// performance trajectory.
//
// Typical uses:
//
//	perfbench                          # run the quick suite, print the table
//	perfbench -full                    # include the macro benchmarks
//	perfbench -run 'bitset|layout'     # subset by name
//	perfbench -json out.json           # also write the report
//	perfbench -update                  # refresh the committed baseline
//	perfbench -check                   # compare a fresh run to the baseline;
//	                                   # exit 1 on a confirmed regression
//
// Exit codes: 0 clean, 1 confirmed regression (-check), 2 usage or
// runtime error.
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"runtime/pprof"
	"text/tabwriter"

	"ffsage/internal/perfbench"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		runPat    = flag.String("run", "", "only run benchmarks matching this regexp")
		reps      = flag.Int("reps", 7, "timed repetitions per benchmark")
		warmup    = flag.Int("warmup", 1, "unmeasured warmup runs per benchmark")
		seed      = flag.Int64("seed", 1996, "fixture and bootstrap seed")
		full      = flag.Bool("full", false, "run the full suite, not just the quick subset")
		conf      = flag.Float64("conf", 0.95, "bootstrap confidence level")
		resamples = flag.Int("resamples", 200, "bootstrap resample count")
		jsonOut   = flag.String("json", "", "write the JSON report to this path")
		memProf   = flag.String("memprofile", "", "write an allocation (pprof allocs) profile to this path after the run")
		baseline  = flag.String("baseline", "BENCH_9.json", "baseline report path for -check / -update")
		check     = flag.Bool("check", false, "compare against -baseline; exit 1 on confirmed regression or blown allocation budget")
		update    = flag.Bool("update", false, "write this run's report to -baseline")
		tol       = flag.Float64("tol", 25, "percent median movement tolerated before a difference counts")
		list      = flag.Bool("list", false, "list registered benchmarks and exit")
		quiet     = flag.Bool("q", false, "suppress progress lines")
	)
	flag.Parse()

	if *list {
		for _, bm := range perfbench.All() {
			suite := "full"
			if bm.Quick {
				suite = "quick"
			}
			fmt.Printf("%-24s %s\n", bm.Name, suite)
		}
		return 0
	}

	opts := perfbench.Options{
		Reps:       *reps,
		Warmup:     *warmup,
		Seed:       *seed,
		Confidence: *conf,
		Resamples:  *resamples,
		Full:       *full,
	}
	if *runPat != "" {
		re, err := regexp.Compile(*runPat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: bad -run pattern: %v\n", err)
			return 2
		}
		opts.Run = re
	}
	if !*quiet {
		opts.Progress = func(name string) { fmt.Fprintf(os.Stderr, "perfbench: running %s\n", name) }
	}

	if !*quiet {
		fmt.Fprintln(os.Stderr, "perfbench: building fixture (micro workload + two aged images)")
	}
	fx, err := perfbench.NewFixture(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	rep, err := perfbench.RunSuite(fx, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	if err := printTable(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}

	if *jsonOut != "" {
		if err := perfbench.WriteReportFile(*jsonOut, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", *jsonOut, err)
			return 2
		}
	}
	if *memProf != "" {
		if err := writeAllocProfile(*memProf); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing %s: %v\n", *memProf, err)
			return 2
		}
	}
	if *update {
		if err := perfbench.WriteReportFile(*baseline, rep); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: updating baseline %s: %v\n", *baseline, err)
			return 2
		}
		fmt.Printf("baseline %s updated (%d benchmarks)\n", *baseline, len(rep.Benchmarks))
	}
	if *check {
		base, err := perfbench.ReadReportFile(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: reading baseline: %v\n", err)
			return 2
		}
		deltas := perfbench.Compare(base, rep, *tol)
		fmt.Printf("\ncheck against %s (tolerance %.0f%%, CI overlap respected):\n", *baseline, *tol)
		if err := perfbench.WriteDeltaTable(os.Stdout, deltas); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		bad := len(perfbench.Regressions(deltas))
		if bad > 0 {
			fmt.Printf("\nREGRESSION: %d benchmark(s) confirmed slower or missing\n", bad)
		}
		budget := perfbench.BudgetViolations(rep)
		for _, v := range budget {
			fmt.Printf("ALLOC BUDGET: %s\n", v)
		}
		if bad > 0 || len(budget) > 0 {
			return 1
		}
		fmt.Println("\nno confirmed regressions; allocation budgets hold")
	}
	return 0
}

// writeAllocProfile dumps the cumulative allocation profile (pprof
// "allocs": every allocation since process start, sampled), the CI
// artifact for diagnosing a blown budget.
func writeAllocProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush outstanding mem profile records
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable renders the run's summary table.
func printTable(rep *perfbench.Report) error {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "benchmark\tmedian\t±MAD\t95%% CI\tns/op\tallocs/op\tB/op\tmetrics\n")
	for _, r := range rep.Benchmarks {
		metrics := ""
		if v, ok := r.Metrics["ops_per_s"]; ok {
			metrics = fmt.Sprintf("%.3g ops/s", v)
		}
		if v, ok := r.Metrics["mb_per_s"]; ok {
			metrics += fmt.Sprintf("  %.1f MB/s", v)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t[%s, %s]\t%.1f\t%.2f\t%.0f\t%s\n",
			r.Name, fmtNs(r.MedianNs), fmtNs(r.MADNs), fmtNs(r.CILoNs), fmtNs(r.CIHiNs),
			r.NsPerOp, r.AllocsPerOp, r.BytesPerOp, metrics)
	}
	return tw.Flush()
}

func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}

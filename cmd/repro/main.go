// Command repro regenerates every table and figure of Smith & Seltzer,
// "A Comparison of FFS Disk Allocation Policies" (USENIX 1996), against
// the simulated substrate, printing paper-reported values next to the
// measured ones.
//
// Usage:
//
//	repro [-seed N] [-quick] [-days N] [-only fig2,table2,tournament] [-ablations]
//	      [-busstudy] [-profiles] [-policies all|a,b] [-j N]
//	      [-faults spec] [-checkpoint-every K] [-checkpoint-dir dir] [-resume]
//	      [-md out.md] [-svg dir] [-metrics out.metrics] [-events out.jsonl]
//	      [-spans out.trace.json] [-spans-jsonl out.spans.jsonl]
//	      [-cpuprofile out.pprof] [-memprofile out.pprof]
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
// registered policy) ages, scores and benches one image per policy and
// renders them as one comparative section. An unknown -policies name
// fails with the list of registered ones.
//
// Package ffsage/internal/repro renders the report; this command owns
// the process: flags, -j, profiling and exit codes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ffsage/internal/faults"
	"ffsage/internal/repro"
	"ffsage/internal/runner"
)

// cli is the command line: the report's options plus the flags that
// act on the process.
type cli struct {
	repro.Options
	jobs             int
	cpuProf, memProf string
}

// defineFlags binds every flag to its field of c.
func defineFlags(fs *flag.FlagSet, c *cli) {
	fs.Int64Var(&c.Seed, "seed", 1996, "workload generation seed")
	fs.BoolVar(&c.Quick, "quick", false, "scaled-down run (60 days, 128 MB)")
	fs.IntVar(&c.Days, "days", 0, "override the aging period in simulated days (0 = the scale's default)")
	fs.StringVar(&c.Only, "only", "", "comma-separated subset: "+strings.Join(repro.Keys(), ","))
	fs.BoolVar(&c.Ablations, "ablations", false, "also run the A1/A2/A4/A5 ablations")
	fs.BoolVar(&c.Profiles, "profiles", false, "also run the §6 workload-profile study")
	fs.BoolVar(&c.BusStudy, "busstudy", false, "also run the §5.1 bus-bandwidth study")
	fs.StringVar(&c.Policies, "policies", "", "also run the N-way policy tournament: all, or comma-separated registered names")
	fs.IntVar(&c.jobs, "j", 0, "max concurrent jobs (0 = GOMAXPROCS); a workload build runs beside them")
	fs.StringVar(&c.Faults, "faults", "", "fault plan for the aging replays, e.g. crash@day:30 or ioerr@alloc:5000 (see internal/faults)")
	fs.IntVar(&c.CkptEvery, "checkpoint-every", 0, "checkpoint the aging replays every K simulated days (needs -checkpoint-dir)")
	fs.StringVar(&c.CkptDir, "checkpoint-dir", "", "directory holding aging checkpoints")
	fs.BoolVar(&c.Resume, "resume", false, "resume the aging replays from the checkpoints in -checkpoint-dir")
	fs.StringVar(&c.MDPath, "md", "", "also write a markdown report to this path")
	fs.StringVar(&c.SVGDir, "svg", "", "also render the six figures as SVG into this directory")
	fs.StringVar(&c.Metrics, "metrics", "", "write the deterministic metrics snapshot to this file")
	fs.StringVar(&c.Events, "events", "", "write the deterministic event streams (JSONL) to this file")
	fs.StringVar(&c.Spans, "spans", "", "write the span streams as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
	fs.StringVar(&c.SpansJSONL, "spans-jsonl", "", "write the span streams as JSONL to this file")
	fs.StringVar(&c.cpuProf, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProf, "memprofile", "", "write a heap profile to this file")
}

func main() {
	var c cli
	defineFlags(flag.CommandLine, &c)
	flag.Parse()
	if c.jobs > 0 {
		runner.SetWorkers(c.jobs)
	}
	runner.CaptureTelemetry(true)
	if c.cpuProf != "" {
		f, err := os.Create(c.cpuProf)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
	}
	err := repro.Run(c.Options, os.Stdout)
	if c.memProf != "" {
		if perr := writeHeapProfile(c.memProf); perr != nil && err == nil {
			err = perr
		}
	}
	if c.cpuProf != "" {
		pprof.StopCPUProfile() // before any os.Exit below
	}
	var crash *faults.Crash
	if errors.As(err, &crash) {
		fmt.Fprintf(os.Stderr, "repro: aging stopped at planned %v\n", crash)
		if c.CkptDir != "" {
			fmt.Fprintf(os.Stderr, "repro: resume with: repro -resume -checkpoint-dir %s (plus the original flags, minus -faults)\n", c.CkptDir)
		}
		os.Exit(3)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
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

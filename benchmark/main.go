// Command benchmark is the repository's end-to-end benchmark: three named
// workloads that drive the simulator's public functions in-process, time
// them from outside, check their outputs against a correctness gate, and
// print every metric by name with its unit. See README.md.
//
//	go run . -workload paper-quick -seed 1996 -seconds 10 -trace 0
//	go run . -compare setA/*.json -- setB/*.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ffsage/internal/runner"
)

// maxWorkers is the benchmark's concurrency budget: the runner pools use
// at most this many goroutines.
const maxWorkers = 2

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	var compareMode, update bool
	var jsonOut, traceDir string
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Int64Var(&o.seed, "seed", 1996, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the timed loop runs")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds a traced run, written as a Chrome trace to -trace-dir, and reports the per-layer metrics")
	fs.StringVar(&traceDir, "trace-dir", filepath.Join(".bench_build", "trace"), "directory the Chrome trace of -trace 1 is written to")
	fs.StringVar(&jsonOut, "json", "", "also write the result, tagged with workload and seed, to this file")
	fs.BoolVar(&update, "update-digests", false, "record this run's digests in testdata/digests.json")
	fs.BoolVar(&compareMode, "compare", false, "compare two sets of -json files: -compare a/*.json -- b/*.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compareMode {
		a, b, err := splitSets(fs.Args())
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		regressed, err := compare(stdout, a, b)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if regressed {
			return 1
		}
		return 0
	}
	if _, ok := registry[o.workload]; !ok {
		fmt.Fprintf(stderr, "benchmark: -workload %q: want one of %v\n", o.workload, workloadNames())
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "benchmark: -trace %d: want 0 or 1\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.trace {
		o.traceOut = filepath.Join(traceDir, fmt.Sprintf("%s-%d.json", o.workload, o.seed))
	}
	o.setupReps, o.setupBudget = 3, 2*time.Second
	if !update {
		// Updating records this run's digests; it checks no old ones.
		if err := loadPins(&o); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	runner.SetWorkers(min(maxWorkers, runtime.NumCPU()))

	res, digests, err := run(&o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if jsonOut != "" {
		if err := writeRecord(jsonOut, o.workload, o.seed, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if update && res.Failed > 0 {
		fmt.Fprintln(stderr, "benchmark: digests not updated: the run had failures")
	} else if update {
		if err := updatePins(o.workload, o.seed, digests); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// writeRecord stores a result for -compare, tagged with what produced it.
func writeRecord(path, workload string, seed int64, res result) error {
	b, err := json.Marshal(record{Workload: workload, Seed: seed, result: res})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

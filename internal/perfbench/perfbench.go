// Package perfbench is the repository's continuous-benchmarking
// harness: a registry of fixed-work measurements of the simulator's
// real hot paths (bitset run scans, block allocation under both
// policies, layout accounting, the disk model's request loop, aging
// replay, ffs.Clone, the checkpoint codec), a wall-clock measurement
// core with warmup and fixed repetition counts, and robust
// seeded-deterministic summaries (median, MAD, bootstrap confidence
// intervals) written to a versioned JSON report.
//
// The wall-clock timing samples themselves necessarily vary run to
// run; everything computed *from* a set of samples is a pure function
// of (samples, seed), so a report built from fixed samples is
// byte-identical across runs. cmd/perfbench drives this package from
// the command line, the root bench_test.go drives the same registry
// through `go test -bench`, and CI's bench-smoke job compares a fresh
// quick-suite run against the committed BENCH_10.json baseline with the
// noise-aware detector in compare.go.
//
// The package sits under ffsvet's detrand analyzer like every other
// deterministic package: wall-clock reads are confined to clock.go,
// where each one carries a justified suppression, and every random
// draw (fixture synthesis, bootstrap resampling) comes from an
// explicitly seeded generator.
package perfbench

// Benchmark is one registered measurement. Quick marks membership in
// the fast suite CI runs on every push; the weekly scheduled job and
// `-full` run everything.
type Benchmark struct {
	Name  string
	Quick bool
	// Setup builds the benchmark's closed-over state from the shared
	// fixture and returns the measured instance. Setup cost (image
	// clones, workload slicing, one priming run) is excluded from
	// measurement.
	Setup func(fx *Fixture) (*Instance, error)
	// CheckAllocs subjects the benchmark to the allocation budget:
	// -check fails when the measured allocs/op exceeds MaxAllocsPerOp.
	// A separate flag (not a sentinel value of the budget) so the
	// zero-valued entries above stay ungated.
	CheckAllocs    bool
	MaxAllocsPerOp float64
}

// Instance is a ready-to-measure benchmark: Op performs one fixed work
// unit — the same work every call, so repetitions are comparable —
// and Units says how many inner operations that unit contains (for
// ns/op and ops/s normalization).
type Instance struct {
	Op    func() error
	Units int64
	// Metrics, optional, derives benchmark-specific throughput numbers
	// from the measured median seconds per Op call. Implementations
	// read quantities an instrumented run already published (obs
	// counters, disk.Stats) rather than re-measuring them.
	Metrics func(medianSec float64) map[string]float64
}

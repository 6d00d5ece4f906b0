package perfbench

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"regexp"
	"runtime"
	"sort"

	"ffsage/internal/stats"
)

// Options tune a suite run. The zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// Reps is the number of timed repetitions per benchmark.
	Reps int
	// Seed feeds the fixture and every summary's bootstrap generator,
	// so a report built from the same samples is byte-identical.
	Seed int64
	// Full includes the benchmarks outside the quick suite.
	Full bool
	// Run, when non-nil, keeps only benchmarks whose name matches.
	Run *regexp.Regexp
	// Progress, when non-nil, is called before each benchmark runs.
	Progress func(name string)
}

// The bootstrap settings and the warmup are fixed, so a fresh run's
// interval always compares like with like against the baseline's; the
// report still records the confidence and resample count.
const (
	// confidence is the bootstrap interval's coverage; resamples the
	// bootstrap's resample count.
	confidence = 0.95
	resamples  = 200
	// warmup unmeasured calls precede each benchmark's timed reps
	// (JIT-free Go still wants page faults and branch predictors
	// settled).
	warmup = 1
)

// DefaultOptions returns the settings CI's bench-smoke job uses.
func DefaultOptions(seed int64) Options {
	return Options{Reps: 7, Seed: seed}
}

func (o Options) withDefaults() Options {
	if o.Reps <= 0 {
		o.Reps = 7
	}
	return o
}

// RunSuite measures every selected benchmark and returns the report,
// benchmarks sorted by name.
func RunSuite(fx *Fixture, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	var results []Result
	for _, bm := range All() {
		if !opts.Full && !bm.Quick {
			continue
		}
		if opts.Run != nil && !opts.Run.MatchString(bm.Name) {
			continue
		}
		if opts.Progress != nil {
			opts.Progress(bm.Name)
		}
		inst, err := bm.Setup(fx)
		if err != nil {
			return nil, fmt.Errorf("perfbench: setup %s: %w", bm.Name, err)
		}
		samples, allocs, bytes, err := measure(inst, opts)
		if err != nil {
			return nil, fmt.Errorf("perfbench: measuring %s: %w", bm.Name, err)
		}
		if bm.CheckAllocs {
			// Budget-gated benchmarks need an exact count: the timed
			// window above also catches ambient allocations from other
			// Ps (GC workers, runtime timers), which would break a hard
			// zero budget. Re-measure quiesced, the way
			// testing.AllocsPerRun does.
			allocs, bytes, err = measureAllocs(inst, opts.Reps)
			if err != nil {
				return nil, fmt.Errorf("perfbench: measuring %s allocs: %w", bm.Name, err)
			}
		}
		res := Summarize(bm.Name, inst, samples, opts)
		res.AllocsPerOp = allocs
		res.BytesPerOp = bytes
		results = append(results, res)
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("perfbench: no benchmarks selected")
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	suite := "quick"
	if opts.Full {
		suite = "full"
	}
	return &Report{
		Schema:     SchemaVersion,
		Suite:      suite,
		Seed:       opts.Seed,
		Reps:       opts.Reps,
		Confidence: confidence,
		Resamples:  resamples,
		Benchmarks: results,
	}, nil
}

// minRepNs is the least wall time one timed repetition spans. A rep
// times each of a batch of Op calls and records their median, so on a
// µs-scale benchmark one preemption spoils one call of the batch, not
// the sample. (The batch's mean would not do: a preempted millisecond
// rep is as likely as a preempted single call to read several times
// slow.)
const minRepNs = 1e6

// measure runs the warmup and timed repetitions, returning per-rep
// samples in nanoseconds per Op call plus the heap allocation rates
// (allocations and bytes per inner operation, averaged over all timed
// calls) from runtime.MemStats deltas taken outside the timed region.
// Each rep times a batch of calls sized by batchSize. The GC barrier
// between warmup and measurement puts every benchmark's timed loop
// behind the same heap state: without it, allocation-heavy benchmarks
// (checkpoint encode, clone) measure whatever garbage the previous
// benchmark left behind, and medians swing several-fold between
// otherwise identical runs.
func measure(inst *Instance, opts Options) (samples []float64, allocsPerOp, bytesPerOp float64, err error) {
	for range warmup {
		if err := inst.Op(); err != nil {
			return nil, 0, 0, err
		}
	}
	batch, err := batchSize(inst)
	if err != nil {
		return nil, 0, 0, err
	}
	calls := make([]float64, opts.Reps*batch)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range calls {
		t0 := now()
		err := inst.Op()
		d := since(t0)
		if err != nil {
			return nil, 0, 0, err
		}
		calls[i] = float64(d.Nanoseconds())
	}
	runtime.ReadMemStats(&m1)
	samples = make([]float64, opts.Reps)
	for i := range samples {
		samples[i] = stats.Median(calls[i*batch : (i+1)*batch])
	}
	units := inst.Units
	if units <= 0 {
		units = 1
	}
	denom := float64(len(calls)) * float64(units)
	allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / denom
	bytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / denom
	return samples, allocsPerOp, bytesPerOp, nil
}

// batchSize returns how many Op calls one rep runs: it doubles a run
// of calls until the run spans minRepNs, as testing.B sizes b.N. An Op
// that takes a millisecond or more runs once per rep.
func batchSize(inst *Instance) (int, error) {
	for n := 1; ; n *= 2 {
		t0 := now()
		for j := 0; j < n; j++ {
			if err := inst.Op(); err != nil {
				return 0, err
			}
		}
		if d := since(t0); d.Nanoseconds() >= minRepNs || n >= 1<<20 {
			return n, nil
		}
	}
}

// measureAllocs counts heap allocations per inner operation with the
// scheduler quiesced to one P (the testing.AllocsPerRun technique):
// with a single P and no timed section, the MemStats delta contains
// only what Op itself allocates, so an exact zero is measurable.
func measureAllocs(inst *Instance, runs int) (allocsPerOp, bytesPerOp float64, err error) {
	if runs <= 0 {
		runs = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// One settling run under the new scheduler state.
	if err := inst.Op(); err != nil {
		return 0, 0, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		if err := inst.Op(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&m1)
	units := inst.Units
	if units <= 0 {
		units = 1
	}
	denom := float64(runs) * float64(units)
	allocsPerOp = float64(m1.Mallocs-m0.Mallocs) / denom
	bytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / denom
	return allocsPerOp, bytesPerOp, nil
}

// Summarize reduces one benchmark's samples to its Result. It is a
// pure function of (name, instance, samples, opts): the bootstrap
// generator is seeded from opts.Seed and the benchmark name, so the
// summary does not depend on suite order or filtering, and fixed
// samples always produce identical output.
func Summarize(name string, inst *Instance, samplesNs []float64, opts Options) Result {
	rng := rand.New(rand.NewSource(opts.Seed ^ nameSeed(name)))
	med := stats.Median(samplesNs)
	lo, hi := stats.BootstrapCI(samplesNs, confidence, resamples, rng)
	units := inst.Units
	if units <= 0 {
		units = 1
	}
	res := Result{
		Name:      name,
		Units:     units,
		Reps:      len(samplesNs),
		SamplesNs: samplesNs,
		MedianNs:  med,
		MADNs:     stats.MAD(samplesNs),
		CILoNs:    lo,
		CIHiNs:    hi,
		NsPerOp:   med / float64(units),
	}
	if med > 0 {
		res.Metrics = map[string]float64{"ops_per_s": float64(units) / (med * 1e-9)}
	}
	if inst.Metrics != nil {
		for k, v := range inst.Metrics(med * 1e-9) {
			if res.Metrics == nil {
				res.Metrics = map[string]float64{}
			}
			res.Metrics[k] = v
		}
	}
	return res
}

// nameSeed folds a benchmark name into a stable 63-bit seed component.
func nameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() >> 1)
}

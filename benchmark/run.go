package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"ffsage/internal/runner"
)

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	// setupReps is the least number of times set-up runs; setup_s is the
	// median. Cheap set-ups repeat until setupBudget is spent.
	setupReps   int
	setupBudget time.Duration
	// maxUnits stops the timed loop after this many units even if time
	// remains (0: run until the seconds are spent, each input at least
	// once).
	maxUnits int
	// smoke shrinks the workloads for the package's tests: two inputs,
	// at Micro scale.
	smoke bool
	// pins are the committed digests for this workload and seed, one per
	// input; nil when the seed is not pinned.
	pins []string
}

// benchWorkload is one named benchmark workload. Its unit is one in-process
// iteration on one of its inputs; the timed loop takes the inputs in
// turn.
type benchWorkload interface {
	// inputCount is how many inputs set-up generates.
	inputCount() int
	// setup generates the inputs; it runs setupReps times and the last
	// repetition's state is kept. Invariant violations go to c.
	setup(rec *recorder, parent int, c *unitCheck) error
	// unit runs one timed iteration on input key and returns the
	// simulated operations it performed.
	unit(rec *recorder, parent, key int) (float64, error)
	// check gates the iteration's outputs (untimed).
	check(c *unitCheck, g *gate, key int)
	// release drops the iteration's state before the next one.
	release()
	// probe returns the primary input the layer probes run on.
	probe() probeInput
	// layerText adds the workload's own per-layer lines after a traced
	// run (spans holds that run's spans).
	layerText(spans []span) []textLine
}

// maxSetupReps caps the set-up repetitions of a cheap set-up.
const maxSetupReps = 25

var registry = map[string]func(o *options) benchWorkload{
	"paper-quick":      newPaperQuick,
	"tournament-quick": newTournament,
	"aged-read":        newAgedRead,
}

func workloadNames() []string { return sortedKeys(registry) }

// run executes the workload: set-up, the untraced timed loop, and with
// o.trace a traced run plus the layer probes. It prints the metric lines
// and returns the result and the digests the gate recorded.
func run(o *options, stdout io.Writer) (result, []string, error) {
	w := registry[o.workload](o)
	var rec *recorder
	if o.trace {
		rec = newRecorder(fmt.Sprintf("%s-%d", o.workload, o.seed))
	}
	g := newGate(o.pins)
	rc, err := startRefClock()
	if err != nil {
		return result{}, nil, err
	}
	defer rc.close()

	var setups, refSetups []float64
	for i, spent := 0, time.Duration(0); i < o.setupReps || (i < maxSetupReps && spent < o.setupBudget); i++ {
		c := &unitCheck{}
		runtime.GC()
		m := rc.mark()
		t0 := time.Now()
		err := rec.do(0, 0, "benchmark", "setup", func(id int) error { return w.setup(rec, id, c) })
		d := time.Since(t0)
		k, _, _ := rc.since(m)
		spent += d
		setups, refSetups = append(setups, d.Seconds()), append(refSetups, k.wall*d.Seconds())
		if err != nil {
			return result{}, nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		g.setupDone(c)
	}

	until := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	lr := iterate(w, nil, until, o.maxUnits, g, rc)
	ref := rc.mark()
	rc.close()
	e2e := map[string]float64{
		"setup_s":       median(refSetups),
		"ops_per_s":     lr.opsPerS(true),
		"cpu_us_per_op": 1e6 * lr.cpuPerOp(true),
		"peak_mem_mb":   lr.peakMemMB(),
	}
	lines := []textLine{
		{"wall_s", median(seconds(lr.samples)), "s"},
		{"p90_s", quantile(seconds(lr.samples), 0.9), "s"},
		{"cpu_s", median(seconds(lr.cpu)), "s"},
		{"samples", float64(len(lr.samples)), "count"},
		{"setup_reps", float64(len(setups)), "count"},
		{"host.setup_s", median(setups), "s"},
		{"host.ops_per_s", lr.opsPerS(false), "ops/s"},
		{"host.cpu_us_per_op", 1e6 * lr.cpuPerOp(false), "us"},
		{"host.peak_rss_mb", peakRSSMB(), "MB"},
		{"ref.slice_cpu_us", 1e6 * ref.cpu.Seconds() / float64(ref.n), "us"},
		{"ref.slice_wall_us", 1e6 * ref.wall.Seconds() / float64(ref.n), "us"},
		{"ref.slices", float64(ref.n), "count"},
	}
	for _, d := range endToEnd {
		lines = append(lines, textLine{d.Name, e2e[d.Name], d.Unit})
	}

	metrics := e2e
	defs := endToEnd
	if o.trace {
		layer, more, err := tracedRun(o, w, rec, g, lr.inputMedian(0))
		if err != nil {
			return result{}, nil, fmt.Errorf("%s traced run: %w", o.workload, err)
		}
		for _, d := range perLayer {
			lines = append(lines, textLine{d.Name, layer[d.Name], d.Unit})
		}
		lines = append(lines, more...)
		metrics, defs = layer, perLayer
	}

	attempted, failed := g.counts()
	lines = append(lines, textLine{"attempts", float64(attempted), "count"}, textLine{"failures", float64(failed), "count"})
	printLines(stdout, o.workload, lines)
	for _, p := range g.report() {
		fmt.Fprintf(stdout, "# gate: %s\n", p)
	}
	mv, err := fill(defs, metrics)
	if err != nil {
		return result{}, nil, err
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: mv}, g.digests(), nil
}

// tracedRun runs one unit on input 0 with spans, then the layer probes.
// It returns the per-layer metrics and the text-only lines: each layer's
// self time, the tracing overhead and the workload's own extras.
func tracedRun(o *options, w benchWorkload, rec *recorder, g *gate, untracedMedian float64) (map[string]float64, []textLine, error) {
	runner.CaptureTelemetry(true)
	defer runner.CaptureTelemetry(false)
	before := len(rec.snapshot())
	t0 := time.Now()
	tr := iterate(w, rec, t0, 1, g, nil)
	wall := time.Since(t0)
	after := len(rec.snapshot())
	var busy time.Duration
	jobs := runner.Telemetry()
	for _, st := range jobs {
		busy += st.Wall
	}

	layer, err := runProbes(w.probe(), rec)
	if err != nil {
		return nil, nil, err
	}
	layer["runner.jobs"] = float64(len(jobs))
	layer["runner.busy_s"] = busy.Seconds()
	layer["runner.utilization"] = busy.Seconds() / (float64(runner.Workers()) * wall.Seconds())

	spans := rec.snapshot()
	var lines []textLine
	self := selfTimes(spans[before:after])
	for _, l := range sortedKeys(self) {
		lines = append(lines, textLine{"self_s." + l, self[l].Seconds(), "s"})
	}
	lines = append(lines,
		textLine{"trace.spans", float64(len(spans)), "count"},
		textLine{"trace.overhead_s", tr.inputMedian(0) - untracedMedian, "s"})
	lines = append(lines, w.layerText(spans)...)
	if err := writeTraceFile(o.traceOut, rec.trace, spans); err != nil {
		return nil, nil, err
	}
	return layer, lines, nil
}

func writeTraceFile(path, traceID string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, traceID, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// iterate is the timed loop. It takes the inputs in turn, each at least
// once, until `until` passes, or runs maxUnits units when that is set. Each iteration starts on a collected heap, so one
// iteration's garbage is not charged to the next; rec is nil for the
// untraced loop, rc nil for the traced run.
func iterate(w benchWorkload, rec *recorder, until time.Time, maxUnits int, g *gate, rc *refClock) loopResult {
	var lr loopResult
	n := w.inputCount()
	done := func(i int) bool {
		if maxUnits > 0 {
			return i == maxUnits
		}
		return i >= n && !time.Now().Before(until)
	}
	for i := 0; !done(i); i++ {
		key := i % n
		runtime.GC()
		var ops float64
		var err error
		lr.time(rc, key, func() {
			err = rec.do(0, 0, "benchmark", "iteration", func(id int) error {
				var err error
				ops, err = w.unit(rec, id, key)
				return err
			})
		})
		c := &unitCheck{}
		if err != nil {
			c.failf("iteration on input %d: %v", key, err)
		} else {
			lr.ops[len(lr.ops)-1] = ops
			w.check(c, g, key)
		}
		g.done(c)
		w.release()
	}
	return lr
}

// loopResult is what a timed loop measured, unit by unit.
type loopResult struct {
	keys    []int           // the input each unit ran on
	samples []time.Duration // wall time
	cpu     []time.Duration // CPU the program spent, less the reference's
	scale   []refScale      // host-to-reference scale while the unit ran
	peak    []float64       // most memory the program held, in bytes
	ops     []float64       // simulated operations (0 when the unit failed)
}

// time runs one unit on input key and records it.
func (lr *loopResult) time(rc *refClock, key int, unit func()) {
	m := rc.mark()
	c0 := cpuTime()
	t0 := time.Now()
	unit()
	d, cpu := time.Since(t0), cpuTime()-c0
	k, refCPU, peak := rc.since(m)
	lr.keys = append(lr.keys, key)
	lr.samples = append(lr.samples, d)
	lr.cpu = append(lr.cpu, cpu-refCPU)
	lr.scale = append(lr.scale, k)
	lr.peak = append(lr.peak, float64(peak))
	lr.ops = append(lr.ops, 0)
}

// perInput sums over the inputs the median of v(i) over each input's
// units i: one round with every input's unit typical. n is the number
// of inputs.
func (lr loopResult) perInput(v func(i int) float64) (sum float64, n int) {
	var byKey [][]float64
	for i, k := range lr.keys {
		for len(byKey) <= k {
			byKey = append(byKey, nil)
		}
		byKey[k] = append(byKey[k], v(i))
	}
	for _, vs := range byKey {
		sum += median(vs)
	}
	return sum, len(byKey)
}

// wall returns unit i's wall time in host seconds, or in reference
// seconds when ref is set.
func (lr loopResult) wall(ref bool) func(i int) float64 {
	return func(i int) float64 {
		if ref {
			return lr.samples[i].Seconds() * lr.scale[i].wall
		}
		return lr.samples[i].Seconds()
	}
}

// cpuSeconds returns unit i's CPU time in host seconds, or in reference
// seconds when ref is set.
func (lr loopResult) cpuSeconds(ref bool) func(i int) float64 {
	return func(i int) float64 {
		if ref {
			return lr.cpu[i].Seconds() * lr.scale[i].cpu
		}
		return lr.cpu[i].Seconds()
	}
}

func (lr loopResult) unitOps(i int) float64 { return lr.ops[i] }

// opsPerS is simulated operations per second over a typical round.
func (lr loopResult) opsPerS(ref bool) float64 {
	ops, _ := lr.perInput(lr.unitOps)
	t, _ := lr.perInput(lr.wall(ref))
	return ops / t
}

// cpuPerOp is CPU seconds per simulated operation over a typical round.
func (lr loopResult) cpuPerOp(ref bool) float64 {
	ops, _ := lr.perInput(lr.unitOps)
	t, _ := lr.perInput(lr.cpuSeconds(ref))
	return t / ops
}

// peakMemMB is a typical unit's peak memory, in MiB, averaged over the
// inputs.
func (lr loopResult) peakMemMB() float64 {
	sum, n := lr.perInput(func(i int) float64 { return lr.peak[i] })
	return sum / float64(n) / (1 << 20)
}

// inputMedian is the median host wall time of the units on input key.
func (lr loopResult) inputMedian(key int) float64 {
	var ts []float64
	for i, k := range lr.keys {
		if k == key {
			ts = append(ts, lr.samples[i].Seconds())
		}
	}
	return median(ts)
}

// cpuTime returns the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's maximum resident set (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// unitCheck collects one unit's gate failures.
type unitCheck struct{ problems []string }

func (c *unitCheck) failf(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// gate is the correctness gate: it counts attempted and failed units and
// compares every unit's digest with the first unit's on the same input
// and with the committed pins.
type gate struct {
	pins      []string
	first     map[int]string
	attempted int
	failed    int
	problems  []string
}

func newGate(pins []string) *gate { return &gate{pins: pins, first: map[int]string{}} }

// digest checks the digest of one unit's outputs on input key.
func (g *gate) digest(c *unitCheck, key int, d string) {
	if f, ok := g.first[key]; !ok {
		g.first[key] = d
	} else if f != d {
		c.failf("input %d: digest %.12s, the first unit's was %.12s", key, d, f)
	}
	if key < len(g.pins) && g.pins[key] != d {
		c.failf("input %d: digest %.12s, testdata pins %.12s", key, d, g.pins[key])
	}
}

// done counts one unit.
func (g *gate) done(c *unitCheck) {
	g.attempted++
	if len(c.problems) > 0 {
		g.failed++
		g.problems = append(g.problems, c.problems...)
	}
}

// setupDone counts a set-up repetition only when it failed its checks.
func (g *gate) setupDone(c *unitCheck) {
	if len(c.problems) > 0 {
		g.done(c)
	}
}

func (g *gate) counts() (attempted, failed int) { return g.attempted, g.failed }

// report returns the first few problems.
func (g *gate) report() []string { return g.problems[:min(len(g.problems), 20)] }

// digests returns the recorded digests in input order.
func (g *gate) digests() []string {
	out := make([]string, len(g.first))
	for k, d := range g.first {
		if k < len(out) {
			out[k] = d
		}
	}
	return out
}

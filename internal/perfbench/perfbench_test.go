package perfbench

import (
	"bytes"
	"regexp"
	"sync"
	"testing"
)

// The fixture ages two micro images; build it once per test binary.
var (
	fxOnce sync.Once
	fxVal  *Fixture
	fxErr  error
)

func testFixture(t *testing.T) *Fixture {
	t.Helper()
	fxOnce.Do(func() { fxVal, fxErr = NewFixture(1996) })
	if fxErr != nil {
		t.Fatal(fxErr)
	}
	return fxVal
}

// TestReportBytesIdenticalForFixedSamples pins the determinism
// contract: a report assembled from fixed samples with the same seed
// marshals to identical bytes, run after run.
func TestReportBytesIdenticalForFixedSamples(t *testing.T) {
	samples := []float64{1200, 1180, 1250, 1190, 1210, 1205, 1195}
	build := func() []byte {
		inst := &Instance{Units: 64, Metrics: func(medianSec float64) map[string]float64 {
			return map[string]float64{"mb_per_s": 1e-6 / medianSec}
		}}
		rep := &Report{
			Schema:     SchemaVersion,
			Suite:      "quick",
			Seed:       1996,
			Reps:       len(samples),
			Confidence: 0.95,
			Resamples:  200,
			Benchmarks: []Result{Summarize("fixed", inst, samples, DefaultOptions(1996))},
		}
		var buf bytes.Buffer
		if err := WriteReport(&buf, rep); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("same samples + same seed produced different report bytes:\n%s\n----\n%s", a, b)
	}
}

// TestSummarizeSeedIndependentOfOrder: a benchmark's summary must not
// depend on which other benchmarks ran (the bootstrap seed mixes the
// name, not a shared stream).
func TestSummarizeSeedIndependentOfOrder(t *testing.T) {
	samples := []float64{900, 1100, 1000, 950, 1050, 980, 1020}
	opts := DefaultOptions(7)
	first := Summarize("alpha", &Instance{Units: 1}, samples, opts)
	// "Run" another benchmark in between; alpha's summary must not move.
	_ = Summarize("beta", &Instance{Units: 1}, samples, opts)
	again := Summarize("alpha", &Instance{Units: 1}, samples, opts)
	if first.CILoNs != again.CILoNs || first.CIHiNs != again.CIHiNs {
		t.Fatalf("alpha's CI changed between calls: [%v,%v] vs [%v,%v]",
			first.CILoNs, first.CIHiNs, again.CILoNs, again.CIHiNs)
	}
	other := Summarize("beta", &Instance{Units: 1}, samples, opts)
	if other.CILoNs == first.CILoNs && other.CIHiNs == first.CIHiNs {
		t.Logf("note: alpha and beta drew identical CIs; allowed but unexpected")
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := synthReport(t, "rt", []float64{100, 105, 95, 102, 98, 101, 99})
	var buf bytes.Buffer
	if err := WriteReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != SchemaVersion || len(got.Benchmarks) != 1 || got.Benchmarks[0].Name != "rt" {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if got.Benchmarks[0].MedianNs != rep.Benchmarks[0].MedianNs {
		t.Errorf("median changed in round trip")
	}
}

func TestReadReportRejectsWrongSchema(t *testing.T) {
	if _, err := ReadReport(bytes.NewReader([]byte(`{"schema":"something/v9"}`))); err == nil {
		t.Fatal("wrong schema accepted")
	}
}

// TestQuickSuiteRuns drives the real quick suite (tiny rep count) end
// to end on the micro fixture: every registered quick benchmark must
// set up, run, and summarize.
func TestQuickSuiteRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("ages the micro fixture")
	}
	fx := testFixture(t)
	rep, err := RunSuite(fx, Options{Reps: 2, Warmup: 0, Seed: 1996})
	if err != nil {
		t.Fatal(err)
	}
	var quick int
	for _, bm := range All() {
		if bm.Quick {
			quick++
		}
	}
	if len(rep.Benchmarks) != quick {
		t.Fatalf("quick suite ran %d benchmarks, registry has %d quick", len(rep.Benchmarks), quick)
	}
	for _, r := range rep.Benchmarks {
		if r.MedianNs <= 0 {
			t.Errorf("%s: non-positive median %v", r.Name, r.MedianNs)
		}
		if r.CILoNs > r.MedianNs || r.MedianNs > r.CIHiNs {
			t.Errorf("%s: median %v outside CI [%v, %v]", r.Name, r.MedianNs, r.CILoNs, r.CIHiNs)
		}
		if _, ok := r.Metrics["ops_per_s"]; !ok {
			t.Errorf("%s: missing ops_per_s metric", r.Name)
		}
	}
	// The throughput-bearing benchmarks must have derived their MB/s
	// from published accounting.
	for _, name := range []string{"aging.day", "disk.requests", "checkpoint.encode", "checkpoint.decode"} {
		r := rep.Find(name)
		if r == nil {
			t.Fatalf("quick suite missing %s", name)
		}
		if v := r.Metrics["mb_per_s"]; v <= 0 {
			t.Errorf("%s: mb_per_s = %v, want > 0", name, v)
		}
	}
}

// TestFullSuiteSetupsWork verifies the non-quick setups construct and
// run once (single rep, filtered to full-only entries).
func TestFullSuiteSetupsWork(t *testing.T) {
	if testing.Short() {
		t.Skip("ages the micro fixture")
	}
	fx := testFixture(t)
	rep, err := RunSuite(fx, Options{Reps: 1, Warmup: 0, Seed: 1996, Full: true,
		Run: regexp.MustCompile(`^(workload\.build|bench\.)`)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("full-only filter ran %d benchmarks, want 3", len(rep.Benchmarks))
	}
	if rep.Suite != "full" {
		t.Errorf("suite = %q, want full", rep.Suite)
	}
}

// TestCheckCatchesInjectedSlowdown pins the acceptance criterion: a
// deliberate slowdown of one benchmark against an otherwise-identical
// baseline makes the detector exit nonzero.
func TestCheckCatchesInjectedSlowdown(t *testing.T) {
	if testing.Short() {
		t.Skip("ages the micro fixture")
	}
	fx := testFixture(t)
	// The median's 95% bootstrap interval must not reach 10x, or the
	// injected 10x overlaps and reads as noise. When each rep timed one
	// ~20 µs op, a preempted rep read 10x slow or worse: with three reps
	// the interval spanned about [min, max] and one outlier did it, and
	// seven still failed ~3% of runs beside a loaded go test. A rep's
	// sample is now the median of a millisecond's batch of calls, which
	// one preemption does not move; twenty-one reps stay as margin.
	opts := Options{Reps: 21, Warmup: 0, Seed: 1996, Run: regexp.MustCompile(`^layout\.`)}
	base, err := RunSuite(fx, opts)
	if err != nil {
		t.Fatal(err)
	}
	cand := *base
	cand.Benchmarks = append([]Result(nil), base.Benchmarks...)
	// Inject a 10x slowdown into layout.rescan: scale the whole summary
	// the way a real regression would move it.
	for i := range cand.Benchmarks {
		if cand.Benchmarks[i].Name == "layout.rescan" {
			r := &cand.Benchmarks[i]
			r.MedianNs *= 10
			r.CILoNs *= 10
			r.CIHiNs *= 10
			r.NsPerOp *= 10
		}
	}
	deltas := Compare(base, &cand, 25)
	if code := ExitCode(deltas); code != 1 {
		t.Fatalf("injected 10x slowdown: exit code %d, want 1 (deltas %+v)", code, deltas)
	}
	// And the unmodified run against itself stays clean.
	if code := ExitCode(Compare(base, base, 25)); code != 0 {
		t.Fatalf("self-comparison: exit code %d, want 0", code)
	}
}

package perfbench

import (
	"bytes"
	"strings"
	"testing"
)

// synthReport builds a report whose single benchmark has the given
// fixed samples, summarized exactly like a real run.
func synthReport(t *testing.T, name string, samples []float64) *Report {
	t.Helper()
	res := Summarize(name, &Instance{Units: 100}, samples, DefaultOptions(1996))
	return &Report{
		Schema:     SchemaVersion,
		Suite:      "quick",
		Seed:       1996,
		Reps:       len(samples),
		Confidence: 0.95,
		Resamples:  200,
		Benchmarks: []Result{res},
	}
}

func deltaFor(t *testing.T, base, cand []float64) Delta {
	t.Helper()
	deltas := Compare(synthReport(t, "bm", base), synthReport(t, "bm", cand), 10)
	if len(deltas) != 1 {
		t.Fatalf("got %d deltas, want 1", len(deltas))
	}
	return deltas[0]
}

// Tight sample sets around a center: spread small relative to the
// center, so the bootstrap CIs are narrow.
func tight(center float64) []float64 {
	return []float64{center, center * 1.01, center * 0.99, center, center * 1.005, center * 0.995, center}
}

// wide is a noisy sample set: same median as tight(center) but with a
// spread that swallows a 2x movement.
func wide(center float64) []float64 {
	return []float64{center, center * 2.5, center * 0.4, center * 1.8, center * 0.6, center * 2.2, center * 0.5}
}

func TestCompareNoChange(t *testing.T) {
	d := deltaFor(t, tight(1000), tight(1000))
	if d.Verdict != VerdictSame {
		t.Fatalf("identical runs: verdict %q, want %q (pct %.1f)", d.Verdict, VerdictSame, d.Pct)
	}
	if ExitCode([]Delta{d}, nil) != 0 {
		t.Errorf("no-change comparison must exit 0")
	}
}

func TestCompareRealRegression(t *testing.T) {
	d := deltaFor(t, tight(1000), tight(2000))
	if d.Verdict != VerdictSlower {
		t.Fatalf("2x slowdown with tight CIs: verdict %q, want %q", d.Verdict, VerdictSlower)
	}
	if d.Pct < 90 || d.Pct > 110 {
		t.Errorf("delta %.1f%%, want ~100%%", d.Pct)
	}
	if ExitCode([]Delta{d}, nil) != 1 {
		t.Errorf("confirmed regression must exit 1")
	}
}

func TestCompareRealImprovement(t *testing.T) {
	d := deltaFor(t, tight(2000), tight(1000))
	if d.Verdict != VerdictFaster {
		t.Fatalf("2x speedup with tight CIs: verdict %q, want %q", d.Verdict, VerdictFaster)
	}
	if ExitCode([]Delta{d}, nil) != 0 {
		t.Errorf("improvement must exit 0")
	}
}

func TestCompareNoisyOverlapIsNotARegression(t *testing.T) {
	// Median moves well past the 10% tolerance, but both sample sets
	// are so noisy that the bootstrap intervals overlap: the detector
	// must call it noise, and -check must pass.
	d := deltaFor(t, wide(1000), wide(1400))
	if d.Verdict != VerdictNoise {
		t.Fatalf("noisy overlap: verdict %q, want %q (pct %.1f)", d.Verdict, VerdictNoise, d.Pct)
	}
	if ExitCode([]Delta{d}, nil) != 0 {
		t.Errorf("noisy-but-overlapping comparison must exit 0")
	}
}

func TestCompareSmallDriftWithinTolerance(t *testing.T) {
	// 5% movement with disjoint CIs is still under the 10% tolerance:
	// both gates must agree before anything counts.
	d := deltaFor(t, tight(1000), tight(1050))
	if d.Verdict != VerdictSame {
		t.Fatalf("5%% drift: verdict %q, want %q", d.Verdict, VerdictSame)
	}
}

func TestCompareMissingAndNew(t *testing.T) {
	base := synthReport(t, "old", tight(1000))
	cand := synthReport(t, "new", tight(1000))
	deltas := Compare(base, cand, 10)
	var verdicts []Verdict
	for _, d := range deltas {
		verdicts = append(verdicts, d.Verdict)
	}
	if len(deltas) != 2 || verdicts[0] != VerdictNew || verdicts[1] != VerdictMissing {
		t.Fatalf("got verdicts %v, want [new missing]", verdicts)
	}
	// A vanished benchmark fails the check; a new one alone does not.
	if ExitCode(deltas, nil) != 1 {
		t.Errorf("missing benchmark must fail the check")
	}
	if ExitCode(deltas[:1], nil) != 0 {
		t.Errorf("a new benchmark alone must pass")
	}
	// Across different suites (quick vs full), absent benchmarks are
	// expected, not regressions.
	full := synthReport(t, "new", tight(1000))
	full.Suite = "full"
	if code := ExitCode(Compare(base, full, 10), nil); code != 0 {
		t.Errorf("cross-suite comparison flagged missing benchmarks: exit %d", code)
	}
}

// TestExitCodeBudget: a blown allocation budget fails the check even
// when no median moved.
func TestExitCodeBudget(t *testing.T) {
	rep := synthReport(t, "replay.steady", tight(1000))
	same := Compare(rep, rep, 10)
	if code := ExitCode(same, BudgetViolations(rep)); code != 0 {
		t.Fatalf("0 allocs/op within budget: exit %d, want 0", code)
	}
	rep.Benchmarks[0].AllocsPerOp = 1
	budget := BudgetViolations(rep)
	if len(budget) != 1 || !strings.Contains(budget[0], "replay.steady") {
		t.Fatalf("budget violations %q, want one naming replay.steady", budget)
	}
	if code := ExitCode(same, budget); code != 1 {
		t.Fatalf("blown budget: exit %d, want 1", code)
	}
}

func TestDeltaTableRenders(t *testing.T) {
	deltas := Compare(synthReport(t, "bm", tight(1000)), synthReport(t, "bm", tight(2000)), 10)
	var buf bytes.Buffer
	if err := WriteDeltaTable(&buf, deltas); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"benchmark", "bm", "slower", "+"} {
		if !strings.Contains(out, want) {
			t.Errorf("delta table missing %q:\n%s", want, out)
		}
	}
}

package perfbench

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// The regression detector. Two reports are compared benchmark by
// benchmark on the median; a difference counts only when BOTH noise
// tests agree it is real:
//
//   - the medians differ by more than the tolerance percentage, AND
//   - the bootstrap confidence intervals do not overlap.
//
// CI overlap is the noise-awareness: on a loaded machine a benchmark's
// samples spread out, the intervals widen, and a jittery median stops
// being actionable instead of failing the build.

// Verdict classifies one benchmark's baseline/candidate pair.
type Verdict string

const (
	// VerdictSame: medians within tolerance.
	VerdictSame Verdict = "same"
	// VerdictNoise: medians differ beyond tolerance but the confidence
	// intervals overlap — not statistically distinguishable.
	VerdictNoise Verdict = "noise"
	// VerdictFaster: a real improvement (beyond tolerance, disjoint
	// intervals, candidate lower).
	VerdictFaster Verdict = "faster"
	// VerdictSlower: a real regression. Fails -check.
	VerdictSlower Verdict = "slower"
	// VerdictMissing: present in the baseline but not the candidate.
	// Fails -check when the suites match: silently dropping a
	// benchmark would blind the trajectory.
	VerdictMissing Verdict = "missing"
	// VerdictNew: present in the candidate only; informational.
	VerdictNew Verdict = "new"
)

// Delta is one benchmark's comparison row.
type Delta struct {
	Name         string
	BaseMedianNs float64
	CandMedianNs float64
	// Pct is the median movement in percent; positive is slower.
	Pct     float64
	Verdict Verdict
}

// Compare diffs candidate against baseline with the given tolerance
// (percent median movement below which differences are ignored).
// Rows come back in candidate-then-baseline name order.
func Compare(base, cand *Report, tolPct float64) []Delta {
	sameSuite := base.Suite == cand.Suite
	var deltas []Delta
	for _, c := range cand.Benchmarks {
		b := base.Find(c.Name)
		if b == nil {
			deltas = append(deltas, Delta{Name: c.Name, CandMedianNs: c.MedianNs, Verdict: VerdictNew})
			continue
		}
		deltas = append(deltas, compareOne(b, &c, tolPct))
	}
	for _, b := range base.Benchmarks {
		if cand.Find(b.Name) == nil && sameSuite {
			deltas = append(deltas, Delta{Name: b.Name, BaseMedianNs: b.MedianNs, Verdict: VerdictMissing})
		}
	}
	return deltas
}

func compareOne(b, c *Result, tolPct float64) Delta {
	d := Delta{
		Name:         b.Name,
		BaseMedianNs: b.MedianNs,
		CandMedianNs: c.MedianNs,
	}
	if b.MedianNs > 0 {
		d.Pct = (c.MedianNs - b.MedianNs) / b.MedianNs * 100
	}
	overlap := c.CILoNs <= b.CIHiNs && b.CILoNs <= c.CIHiNs
	switch {
	case d.Pct > tolPct && !overlap:
		d.Verdict = VerdictSlower
	case d.Pct < -tolPct && !overlap:
		d.Verdict = VerdictFaster
	case d.Pct > tolPct || d.Pct < -tolPct:
		d.Verdict = VerdictNoise
	default:
		d.Verdict = VerdictSame
	}
	return d
}

// Regressions returns the deltas that should fail a -check run:
// confirmed slowdowns and benchmarks that vanished from a same-suite
// candidate.
func Regressions(deltas []Delta) []Delta {
	var bad []Delta
	for _, d := range deltas {
		if d.Verdict == VerdictSlower || d.Verdict == VerdictMissing {
			bad = append(bad, d)
		}
	}
	return bad
}

// BudgetViolations checks a report against the registry's allocation
// budgets: every benchmark registered with CheckAllocs whose measured
// allocs/op exceeds its MaxAllocsPerOp yields one message naming the
// benchmark. Unlike the median comparison this needs no baseline — the
// budget is absolute.
func BudgetViolations(rep *Report) []string {
	var bad []string
	for _, bm := range All() {
		if !bm.CheckAllocs {
			continue
		}
		r := rep.Find(bm.Name)
		if r == nil {
			continue // not selected this run
		}
		if r.AllocsPerOp > bm.MaxAllocsPerOp {
			bad = append(bad, fmt.Sprintf("%s: %.3f allocs/op exceeds budget %.3f",
				bm.Name, r.AllocsPerOp, bm.MaxAllocsPerOp))
		}
	}
	return bad
}

// ExitCode maps a comparison and the run's allocation-budget
// violations (BudgetViolations) to the exit status of perfbench -check:
// 0 clean, 1 a confirmed regression or a blown budget.
func ExitCode(deltas []Delta, budget []string) int {
	if len(Regressions(deltas)) > 0 || len(budget) > 0 {
		return 1
	}
	return 0
}

// WriteDeltaTable renders the per-benchmark comparison.
func WriteDeltaTable(w io.Writer, deltas []Delta) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tbase median\tnew median\tdelta\tverdict")
	for _, d := range deltas {
		base, cand, pct := "-", "-", "-"
		if d.BaseMedianNs > 0 {
			base = formatNs(d.BaseMedianNs)
		}
		if d.CandMedianNs > 0 {
			cand = formatNs(d.CandMedianNs)
		}
		if d.Verdict != VerdictNew && d.Verdict != VerdictMissing {
			pct = fmt.Sprintf("%+.1f%%", d.Pct)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\n", d.Name, base, cand, pct, d.Verdict)
	}
	return tw.Flush()
}

// formatNs renders a nanosecond duration with a human unit.
func formatNs(ns float64) string {
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

package experiments

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ffsage/internal/faults"
	"ffsage/internal/obs"
	"ffsage/internal/workload"
)

var (
	quickOnce  sync.Once
	quickSuite *Suite
	quickErr   error
)

// sharedQuick builds the Quick-scale suite once for the whole package.
func sharedQuick(t *testing.T) *Suite {
	t.Helper()
	quickOnce.Do(func() {
		quickSuite, quickErr = NewSuite(Quick(1996))
	})
	if quickErr != nil {
		t.Fatal(quickErr)
	}
	return quickSuite
}

func TestSuiteHeadlines(t *testing.T) {
	s := sharedQuick(t)
	h, err := s.Headlines()
	if err != nil {
		t.Fatal(err)
	}
	if h.FinalRealloc <= h.FinalOrig {
		t.Errorf("realloc %.3f not better than ffs %.3f", h.FinalRealloc, h.FinalOrig)
	}
	if h.NonOptimalImprovement <= 0.2 {
		t.Errorf("improvement %.2f, want > 20%%", h.NonOptimalImprovement)
	}
	if h.Day1Orig < 0.8 || h.Day1Realloc < 0.8 {
		t.Errorf("day-1 scores %.3f/%.3f suspiciously low", h.Day1Orig, h.Day1Realloc)
	}
	// The reconstruction loses intra-day churn, so the simulated aging
	// fragments no more than the real one (paper Figure 1's gap).
	if h.Fig1SimFinal < h.Fig1RealFinal-0.05 {
		t.Errorf("simulated %.3f fragments much more than real %.3f", h.Fig1SimFinal, h.Fig1RealFinal)
	}
}

func TestSuiteSeriesCoverAllDays(t *testing.T) {
	s := sharedQuick(t)
	o, r := s.Fig2()
	if len(o) != s.Days() || len(r) != s.Days() {
		t.Errorf("series lengths %d/%d, want %d", len(o), len(r), s.Days())
	}
	realSeries, sim := s.Fig1()
	if len(realSeries) != s.Days() || len(sim) != s.Days() {
		t.Errorf("fig1 lengths %d/%d", len(realSeries), len(sim))
	}
}

func TestSuiteFig3Shape(t *testing.T) {
	s := sharedQuick(t)
	orig, realloc := s.Fig3()
	if len(orig) != len(realloc) || len(orig) == 0 {
		t.Fatal("empty fig3")
	}
	var better, total int
	for i := range orig {
		if orig[i].Files == 0 || realloc[i].Files == 0 {
			continue
		}
		total++
		if realloc[i].Score >= orig[i].Score {
			better++
		}
	}
	if total == 0 {
		t.Fatal("no populated buckets")
	}
	if better*2 < total {
		t.Errorf("realloc better in only %d/%d buckets", better, total)
	}
}

func TestSuiteFig4Fig5(t *testing.T) {
	s := sharedQuick(t)
	d, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Orig) != len(s.Cfg.BenchSizes) {
		t.Fatalf("%d sweep points", len(d.Orig))
	}
	if d.RawRead <= d.RawWrite {
		t.Error("raw read not above raw write")
	}
	// The indirect cliff: read throughput at 104 KB below 96 KB.
	var r96, r104 float64
	for _, p := range d.Realloc {
		switch p.FileSize {
		case 96 << 10:
			r96 = p.ReadBps
		case 104 << 10:
			r104 = p.ReadBps
		}
	}
	if r104 >= r96 {
		t.Errorf("no indirect cliff: 96KB %.0f ≤ 104KB %.0f", r96, r104)
	}
	// Fig5 shares the same run.
	o5, r5, err := s.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(o5) != len(d.Orig) || len(r5) != len(d.Realloc) {
		t.Error("fig5 shape mismatch")
	}
	// Realloc lays benchmark files out at least as well as the
	// original policy at every size.
	for i := range r5 {
		if r5[i].LayoutScore+0.05 < o5[i].LayoutScore {
			t.Errorf("size %d: realloc bench layout %.3f below ffs %.3f",
				r5[i].FileSize, r5[i].LayoutScore, o5[i].LayoutScore)
		}
	}
}

func TestSuiteTable2Fig6(t *testing.T) {
	s := sharedQuick(t)
	o, r, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if r.LayoutScore <= o.LayoutScore {
		t.Errorf("hot layout: realloc %.3f not above ffs %.3f", r.LayoutScore, o.LayoutScore)
	}
	if r.ReadBps <= o.ReadBps {
		t.Errorf("hot read: realloc %.0f not above ffs %.0f", r.ReadBps, o.ReadBps)
	}
	ho, hr := s.Fig6()
	if len(ho) == 0 || len(hr) == 0 {
		t.Fatal("empty fig6")
	}
}

func TestTable1(t *testing.T) {
	s := sharedQuick(t)
	rows := s.Table1()
	if len(rows) < 15 {
		t.Fatalf("%d rows", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Section == "" || r.Name == "" || r.Value == "" {
			t.Errorf("incomplete row %+v", r)
		}
		seen[r.Name] = true
	}
	for _, want := range []string{"Block Size", "Max. Cluster Size", "Rotational Speed"} {
		if !seen[want] {
			t.Errorf("missing row %q", want)
		}
	}
}

func TestAblationQuirkQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	cfg := Quick(7)
	rs, err := AblationQuirk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 {
		t.Fatalf("%d results", len(rs))
	}
	// Engaging realloc for single-block runs must not hurt the
	// two-block bucket.
	if rs[1].TwoBlockScore+0.1 < rs[0].TwoBlockScore {
		t.Errorf("single-block variant %.3f worse than stock %.3f",
			rs[1].TwoBlockScore, rs[0].TwoBlockScore)
	}
}

func TestAblationCrossCgQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are slow")
	}
	cfg := Quick(7)
	rs, err := AblationCrossCg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-group search must not age worse than in-group only.
	if rs[0].FinalLayout+0.02 < rs[1].FinalLayout {
		t.Errorf("cross-group %.3f worse than in-group %.3f",
			rs[0].FinalLayout, rs[1].FinalLayout)
	}
}

// The paper's §7 headline: realloc cuts intra-file disk seeks by more
// than 50%.
func TestSeekReductionHeadline(t *testing.T) {
	s := sharedQuick(t)
	h, err := s.Headlines()
	if err != nil {
		t.Fatal(err)
	}
	if h.SeeksOrig <= h.SeeksRealloc {
		t.Fatalf("seeks %d → %d: no reduction", h.SeeksOrig, h.SeeksRealloc)
	}
	if h.SeekReduction < 0.4 {
		t.Errorf("seek reduction %.2f, want ≥ 0.4 (paper: >0.5)", h.SeekReduction)
	}
}

// TestStudyArmsIgnoreRecoveryAndObs: the ablation and profile arms age
// through the cache whatever the run's Recovery and Obs say — never
// faulted, never checkpointed, never published — so a run with a
// crash plan and a registry gets the same results and an empty
// snapshot.
func TestStudyArmsIgnoreRecoveryAndObs(t *testing.T) {
	cfg := tinyCfg(31)
	wantAbl, err := AblationCrossCg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantProf, err := RunProfile(cfg, workload.Profiles()[0])
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	cfg.Recovery = &Recovery{Faults: faults.MustParse("crash@day:2")}
	gotAbl, err := AblationCrossCg(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotProf, err := RunProfile(cfg, workload.Profiles()[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAbl, wantAbl) || gotProf != wantProf {
		t.Errorf("results moved under Recovery/Obs:\n%+v %+v\nwant\n%+v %+v", gotAbl, gotProf, wantAbl, wantProf)
	}
	var got, empty bytes.Buffer
	if err := reg.WriteMetrics(&got); err != nil {
		t.Fatal(err)
	}
	if err := obs.NewRegistry().WriteMetrics(&empty); err != nil {
		t.Fatal(err)
	}
	if got.String() != empty.String() {
		t.Errorf("study arms published metrics:\n%s", got.String())
	}
}

// TestRecoveryNeedsDir: checkpoints or a resume without a checkpoint
// directory are rejected, so no run writes checkpoints into the
// working directory.
func TestRecoveryNeedsDir(t *testing.T) {
	for _, rec := range []*Recovery{{CheckpointEvery: 1}, {Resume: true}} {
		cfg := tinyCfg(31)
		cfg.Recovery = rec
		if _, err := NewSuite(cfg); err == nil || !strings.Contains(err.Error(), "checkpoint directory") {
			t.Errorf("%+v: got %v, want a missing-directory error", *rec, err)
		}
	}
}

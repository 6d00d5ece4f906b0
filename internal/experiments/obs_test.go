package experiments

import (
	"bytes"
	"strings"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/ffs"
	"ffsage/internal/obs"
	"ffsage/internal/policy"
	"ffsage/internal/runner"
)

// tinyCfg is a further-scaled-down Quick configuration so the
// determinism differential can afford to build the suite twice.
func tinyCfg(seed int64) Config {
	cfg := Quick(seed)
	cfg.FsParams.SizeBytes = 64 << 20
	cfg.FsParams.NumCg = 8
	cfg.WorkloadCfg.Days = 12
	cfg.WorkloadCfg.NumCg = 8
	cfg.WorkloadCfg.FsBytes = 64 << 20
	cfg.WorkloadCfg.RampDays = 3
	cfg.WorkloadCfg.ChurnBytesPerDay = 12 << 20
	cfg.WorkloadCfg.ShortPairsPerDay = 60
	cfg.WorkloadCfg.LongSize.MaxBytes = 4 << 20
	cfg.NFSCfg.PairsPerDay = 40
	cfg.BenchTotal = 4 << 20
	cfg.BenchSizes = []int64{16 << 10, 96 << 10, 1 << 20}
	cfg.HotWindow = 4
	return cfg
}

// obsSnapshot builds the tiny suite with the given worker bound on a
// cold cache and returns the metrics, events, and span dumps.
func obsSnapshot(t *testing.T, workers int) (metrics, events, spans string) {
	t.Helper()
	ResetCaches()
	runner.SetWorkers(workers)
	defer runner.SetWorkers(0)
	reg := obs.NewRegistry()
	cfg := tinyCfg(77)
	cfg.Obs = reg
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig4(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Table2(); err != nil {
		t.Fatal(err)
	}
	var m, e, sb bytes.Buffer
	if err := reg.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteEvents(&e); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteSpans(&sb); err != nil {
		t.Fatal(err)
	}
	return m.String(), e.String(), sb.String()
}

// TestMetricsIdenticalAcrossWorkers is the -j differential: the full
// metrics snapshot and event dump of a suite built on one worker must
// be byte-identical to one built on eight. Counters commute, and every
// float-bearing metric has a single writer publishing in a fixed
// sequential order, so scheduling must not leak into the output.
func TestMetricsIdenticalAcrossWorkers(t *testing.T) {
	m1, e1, s1 := obsSnapshot(t, 1)
	m8, e8, s8 := obsSnapshot(t, 8)
	if m1 != m8 {
		t.Errorf("metrics differ between -j1 and -j8\n-j1:\n%s\n-j8:\n%s", m1, m8)
	}
	if e1 != e8 {
		t.Errorf("events differ between -j1 and -j8\n-j1:\n%s\n-j8:\n%s", e1, e8)
	}
	if s1 != s8 {
		t.Errorf("spans differ between -j1 and -j8\n-j1:\n%s\n-j8:\n%s", s1, s8)
	}
	// Guard against vacuous success: the snapshot must actually carry
	// the aging summaries and the benchmark disk attribution.
	for _, want := range []string{
		"counter aging.age-ffs.alloc.blocks",
		"counter aging.age-realloc.alloc.cluster_moves",
		"counter aging.age-ground-truth.days",
		"hist disk.fig4.ffs.read.mech.seek_s",
		"hist disk.table2.realloc.write.rot_s",
	} {
		if !strings.Contains(m1, want) {
			t.Errorf("snapshot missing %q", want)
		}
	}
	if !strings.Contains(e1, `"stream":"aging.age-ffs.days"`) {
		t.Error("events missing per-day stream")
	}
	// Same guard for spans: every arm and benchmark must contribute a
	// stream, with the expected roots.
	for _, want := range []string{
		`"stream":"aging.age-ffs.spans"`,
		`"span":"replay"`,
		`"stream":"disk.fig4.realloc.spans"`,
		`"span":"sweep"`,
		`"stream":"disk.table2.ffs.spans"`,
		`"span":"hotfiles"`,
	} {
		if !strings.Contains(s1, want) {
			t.Errorf("span dump missing %s", want)
		}
	}
}

// TestCacheCountsTally checks the footer counters: a cold suite build
// misses, an identical rebuild hits.
func TestCacheCountsTally(t *testing.T) {
	ResetCaches()
	cfg := tinyCfg(78)
	if _, err := NewSuite(cfg); err != nil {
		t.Fatal(err)
	}
	bh, bm, ah, am := CacheCounts()
	if bh != 0 || bm != 1 {
		t.Errorf("cold build counts hit=%d miss=%d, want 0/1", bh, bm)
	}
	// Three arms, two distinct (params, policy, workload) triples share
	// one entry: age-ffs and age-ground-truth differ by workload, so all
	// three are distinct keys here.
	if ah != 0 || am != 3 {
		t.Errorf("cold image counts hit=%d miss=%d, want 0/3", ah, am)
	}
	if _, err := NewSuite(cfg); err != nil {
		t.Fatal(err)
	}
	bh, bm, ah, am = CacheCounts()
	if bh != 1 || bm != 1 || ah != 3 || am != 3 {
		t.Errorf("warm rebuild counts %d/%d/%d/%d, want 1/1/3/3", bh, bm, ah, am)
	}
}

// TestAgedKeyIdentifiesPolicy checks that aged-image keys identify
// policies by value: every registered policy and every ablation variant
// gets a key of its own, and a freshly built copy of a policy maps to
// the same key.
func TestAgedKeyIdentifiesPolicy(t *testing.T) {
	params := tinyCfg(78).FsParams
	firstFit := params
	firstFit.FirstFitClusters = true
	type variant struct {
		params ffs.Params
		pol    ffs.Policy
	}
	variants := []variant{
		{params, core.Realloc{ReallocSingleBlocks: true}}, // A2
		{firstFit, core.Realloc{}},                        // A4
		{params, core.Realloc{InGroupOnly: true}},         // A5
	}
	for _, name := range policy.Names() {
		p1, err := policy.New(name)
		if err != nil {
			t.Fatal(err)
		}
		p2, _ := policy.New(name)
		if k1, k2 := agedKey(params, p1, "wl"), agedKey(params, p2, "wl"); k1 != k2 {
			t.Errorf("%s: two instances key differently: %q vs %q", name, k1, k2)
		}
		variants = append(variants, variant{params, p1})
	}
	seen := map[string]string{}
	for _, v := range variants {
		k := agedKey(v.params, v.pol, "wl")
		if prev, dup := seen[k]; dup {
			t.Errorf("policies %s and %s share aged-image key %q", prev, v.pol.Name(), k)
		}
		seen[k] = v.pol.Name()
	}
}

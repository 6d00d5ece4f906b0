package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"ffsage/internal/aging"
	"ffsage/internal/ffs"
	"ffsage/internal/layout"
	"ffsage/internal/obs"
	"ffsage/internal/policy"
	"ffsage/internal/runner"
)

// tournamentCfg is the seeded 30-day quick-scale configuration the
// tournament property test runs under.
func tournamentCfg() Config {
	cfg := Quick(1996)
	cfg.WorkloadCfg.Days = 30
	return cfg
}

// allPolicies instantiates every registered policy in Names() order.
func allPolicies(t *testing.T) []ffs.Policy {
	t.Helper()
	pols, err := RegisteredPolicies(policy.Names()...)
	if err != nil {
		t.Fatal(err)
	}
	return pols
}

// runTournament runs the full field on a cold cache under the given
// worker bound and returns the entries plus the report rendered from
// them.
func runTournament(t *testing.T, workers int) ([]TournamentEntry, string) {
	t.Helper()
	ResetCaches()
	runner.SetWorkers(workers)
	defer runner.SetWorkers(0)
	cfg := tournamentCfg()
	entries, err := Tournament(cfg, allPolicies(t)...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTournamentReport(&buf, "quick", cfg.Seed, cfg.WorkloadCfg.Days, entries); err != nil {
		t.Fatal(err)
	}
	return entries, buf.String()
}

// TestTournamentProperty is the registry-wide property test: every
// registered policy, aged 30 days at quick scale, must leave a clean
// file system whose incremental layout score agrees with the full
// rescan after every simulated day, and the comparative report must be byte-identical
// between a serial (-j1) and a parallel (-j8) run.
func TestTournamentProperty(t *testing.T) {
	_, report1 := runTournament(t, 1)
	entries8, report8 := runTournament(t, 8)
	if report1 != report8 {
		t.Errorf("tournament report differs between -j1 and -j8\n-j1:\n%s\n-j8:\n%s", report1, report8)
	}
	if len(entries8) != len(policy.Names()) {
		t.Fatalf("%d entries for %d registered policies", len(entries8), len(policy.Names()))
	}
	// The -j8 run left the cache warm: re-fetch each aged image (a
	// private clone) and check the per-policy invariants on it.
	cfg := tournamentCfg()
	b, err := CachedBuild(cfg.WorkloadCfg, cfg.NFSCfg)
	if err != nil {
		t.Fatal(err)
	}
	key := workloadKey(cfg.WorkloadCfg, cfg.NFSCfg) + "|reconstructed"
	for i, name := range policy.Names() {
		pol, err := policy.New(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := CachedAgedImage(cfg.FsParams, pol, b.Reconstructed, key, aging.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Fs.Check(); err != nil {
			t.Errorf("%s: aged image fails Check: %v", name, err)
		}
		if got, want := res.Fs.LayoutScore(), layout.FsAggregate(res.Fs); got != want {
			t.Errorf("%s: incremental layout score %v != rescan %v", name, got, want)
		}
		if entries8[i].Name != name {
			t.Errorf("entry %d is %q, want %q (input order must be preserved)", i, entries8[i].Name, name)
		}
		if got := entries8[i].LayoutByDay.FinalOr(-1); got != res.Fs.LayoutScore() {
			t.Errorf("%s: entry final layout %v != aged image score %v", name, got, res.Fs.LayoutScore())
		}
		// The entry's daily series must be the rescan of each day's file
		// system, not only agree with it at the end.
		fsys, err := ffs.NewFileSystem(cfg.FsParams, pol)
		if err != nil {
			t.Fatal(err)
		}
		var rescans []float64
		if _, err := aging.ReplayOn(fsys, b.Reconstructed, aging.Options{Progress: func(int, float64, float64) {
			rescans = append(rescans, layout.FsAggregate(fsys))
		}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := entries8[i].LayoutByDay.Values(); !slices.Equal(got, rescans) {
			t.Errorf("%s: daily layout %v != daily rescan %v", name, got, rescans)
		}
		if len(entries8[i].Seq) != len(cfg.BenchSizes) {
			t.Errorf("%s: %d sweep points, want %d", name, len(entries8[i].Seq), len(cfg.BenchSizes))
		}
	}
	_, _, ah, _ := CacheCounts()
	if ah < int64(len(policy.Names())) {
		t.Errorf("aged-image cache hits %d; invariant pass should have reused the tournament images", ah)
	}
}

// TestTournamentRejects pins the argument validation.
func TestTournamentRejects(t *testing.T) {
	cfg := tournamentCfg()
	if _, err := Tournament(cfg); err == nil {
		t.Error("empty tournament accepted")
	}
	p1, err := policy.New("ffs")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := policy.New("ffs")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Tournament(cfg, p1, p2); err == nil {
		t.Error("duplicate policy names accepted")
	}
}

// TestTournamentPublishesObs checks the tournament's metric scopes are
// present and disjoint from the Suite's aging.<arm> namespace.
func TestTournamentPublishesObs(t *testing.T) {
	ResetCaches()
	reg := obs.NewRegistry()
	cfg := tinyCfg(79)
	cfg.Obs = reg
	pols, err := RegisteredPolicies("ffs", "ffs+realloc", "ssd")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Tournament(cfg, pols...); err != nil {
		t.Fatal(err)
	}
	var m bytes.Buffer
	if err := reg.WriteMetrics(&m); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tournament.ffs.alloc.blocks",
		"tournament.ffs-realloc.alloc.cluster_moves",
		"tournament.ssd.alloc.blocks",
	} {
		if !strings.Contains(m.String(), want) {
			t.Errorf("tournament metrics missing %q", want)
		}
	}
}

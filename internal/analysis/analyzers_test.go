package analysis

import (
	"testing"
)

func TestDetrandFixtures(t *testing.T) {
	// detrand/perfbench mirrors ffsage/internal/perfbench: covered,
	// but NOT on the TimeOK allowlist — wall-clock reads pass only
	// under a justified //lint:ignore in its measurement core.
	a := Detrand(DetrandConfig{
		Packages: []string{"detrand/a", "detrand/bench", "detrand/obs", "detrand/perfbench", "detrand/policy"},
		TimeOK:   []string{"detrand/bench"},
	})
	for _, path := range []string{"detrand/a", "detrand/bench", "detrand/other", "detrand/obs", "detrand/perfbench", "detrand/policy"} {
		t.Run(path, func(t *testing.T) { runFixture(t, a, path) })
	}
}

func TestMaporderFixtures(t *testing.T) {
	for _, path := range []string{"maporder/a", "maporder/obs"} {
		t.Run(path, func(t *testing.T) { runFixture(t, Maporder(), path) })
	}
}

func TestCheckedCorruptionFixtures(t *testing.T) {
	a := CheckedCorruption(CheckedCorruptionConfig{Packages: []string{"checkedcorruption/ffs"}})
	runFixture(t, a, "checkedcorruption/a")
}

func TestDirmapFixtures(t *testing.T) {
	// dirmap/ffs mirrors ffsage/internal/ffs (covered, every forbidden
	// shape flagged); dirmap/other holds the same shapes outside the
	// configured packages and must stay silent.
	a := Dirmap(DirmapConfig{Packages: []string{"dirmap/ffs"}})
	for _, path := range []string{"dirmap/ffs", "dirmap/other"} {
		t.Run(path, func(t *testing.T) { runFixture(t, a, path) })
	}
}

func TestNopanicFixtures(t *testing.T) {
	a := Nopanic(NopanicConfig{AllowFiles: []string{"nopanic/a/corrupt.go"}})
	for _, path := range []string{"nopanic/a", "nopanic/mainpkg"} {
		t.Run(path, func(t *testing.T) { runFixture(t, a, path) })
	}
}

func TestFsyncackFixtures(t *testing.T) {
	// fsyncack/queue mirrors an ack-bearing package; fsyncack/other
	// holds the same unsynced shapes outside the config and must stay
	// silent.
	a := Fsyncack(FsyncackConfig{Packages: []string{"fsyncack/queue"}})
	for _, path := range []string{"fsyncack/queue", "fsyncack/other"} {
		t.Run(path, func(t *testing.T) { runFixture(t, a, path) })
	}
}

func TestAtomicwriteFixtures(t *testing.T) {
	a := Atomicwrite(AtomicwriteConfig{Packages: []string{"atomicwrite/state"}})
	runFixture(t, a, "atomicwrite/state")
}

func TestSnapshotpureFixtures(t *testing.T) {
	a := Snapshotpure(SnapshotpureConfig{
		Roots: []string{"snapshotpure/snap.WriteSnapshot", "snapshotpure/snap.ReadSnapshot"},
		Sinks: []string{"(*snapshotpure/snap.pool).Stats", "snapshotpure/snap.Ops"},
	})
	runFixture(t, a, "snapshotpure/snap")
}

func TestCtxloopFixtures(t *testing.T) {
	a := Ctxloop(CtxloopConfig{Packages: []string{"ctxloop/loop"}})
	runFixture(t, a, "ctxloop/loop")
}

func TestPkgPathOf(t *testing.T) {
	cases := map[string]string{
		"ffsage/internal/ffs":                                 "ffsage/internal/ffs",
		"ffsage/internal/ffs [ffsage/internal/ffs.test]":      "ffsage/internal/ffs",
		"ffsage/internal/ffs_test [ffsage/internal/ffs.test]": "ffsage/internal/ffs",
		"ffsage_test": "ffsage",
	}
	for in, want := range cases {
		if got := PkgPathOf(in); got != want {
			t.Errorf("PkgPathOf(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestRepoIsClean runs the default suite over the whole module's
// sources and test files, pinning the acceptance criterion — ffsvet
// passes clean on its own tree — into the ordinary test tier.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export over the whole module")
	}
	pkgs, err := LoadPatterns("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	// One Program spanning every package, as cmd/ffsvet runs it, so the
	// whole-program analyzers see cross-package reachability.
	prog := NewProgram(pkgs)
	for _, d := range RunProgram(prog, DefaultSuite()) {
		t.Errorf("%s", d)
	}
	// A root that names no function checks nothing, silently: a rename
	// or deletion must carry its root along.
	for _, root := range DefaultSnapshotpureConfig().Roots {
		if prog.Graph.Nodes[root] == nil {
			t.Errorf("snapshotpure root %s names no function in the module", root)
		}
	}
}

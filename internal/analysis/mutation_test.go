package analysis

// Mutation tests: seed the defects the whole-program analyzers exist to
// catch into the real sources, re-typecheck against the module's export
// data, and require the finding. A fixture proves an analyzer works on
// a toy; these prove that the configured roots, package lists, and
// primitive keys match the actual tree — a renamed function or a stale
// root would make the analyzer silently vacuous, and this is the test
// that would notice.

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// loadRepoPackage loads one package of this module with its tests,
// with patch applied to each source file's bytes before parsing (nil
// patch = verbatim).
func loadRepoPackage(t *testing.T, importPath string, patch Patch) *Package {
	t.Helper()
	pkgs, err := loadPatterns("../..", []string{importPath}, patch)
	if err != nil {
		t.Fatalf("loading %s: %v", importPath, err)
	}
	for _, pkg := range pkgs {
		if pkg.Path == importPath {
			return pkg
		}
	}
	t.Fatalf("loader did not return %s", importPath)
	return nil
}

// mustReplace asserts the mutation anchor still exists in the source —
// a refactor that moves it should fail loudly here, not silently turn
// the test into a no-op.
func mustReplace(t *testing.T, src []byte, old, new string) []byte {
	t.Helper()
	if !bytes.Contains(src, []byte(old)) {
		t.Fatalf("mutation anchor %q not found; update the mutation test alongside the refactor", old)
	}
	return bytes.Replace(src, []byte(old), []byte(new), 1)
}

// TestMutationDeletedSyncIsFlagged deletes the fsync from the WAL
// append path — the exact defect that turns an acknowledged enqueue
// into data loss on power failure — and requires fsyncack to flag the
// now-unsynced write.
func TestMutationDeletedSyncIsFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export over the module")
	}
	load := func(patch Patch) []Diagnostic {
		pkg := loadRepoPackage(t, "ffsage/internal/queue", patch)
		return RunProgram(NewProgram([]*Package{pkg}),
			[]*Analyzer{Fsyncack(DefaultFsyncackConfig())})
	}
	if diags := load(nil); len(diags) != 0 {
		t.Fatalf("unmutated queue is not clean: %v", diags)
	}
	diags := load(func(name string, src []byte) []byte {
		if filepath.Base(name) != "wal.go" {
			return src
		}
		return mustReplace(t, src, "w.f.Sync()", "error(nil)")
	})
	if len(diags) == 0 {
		t.Fatal("deleting the Sync in (*WAL).append produced no fsyncack finding")
	}
	for _, d := range diags {
		if !strings.Contains(d.Message, "(*queue.WAL).append") {
			t.Errorf("finding does not name the append path: %s", d)
		}
	}
}

// TestMutationInjectedClockIsFlagged injects a wall-clock read two
// call-graph edges below the checkpoint codec roots (ReadCheckpoint →
// ReadFrame → corruptWrap) and requires snapshotpure to carry the taint
// down to it.
func TestMutationInjectedClockIsFlagged(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export over the module")
	}
	load := func(patch Patch) []Diagnostic {
		pkg := loadRepoPackage(t, "ffsage/internal/trace", patch)
		return RunProgram(NewProgram([]*Package{pkg}),
			[]*Analyzer{Snapshotpure(DefaultSnapshotpureConfig())})
	}
	if diags := load(nil); len(diags) != 0 {
		t.Fatalf("unmutated trace is not clean: %v", diags)
	}
	diags := load(func(name string, src []byte) []byte {
		if filepath.Base(name) != "frame.go" {
			return src
		}
		src = mustReplace(t, src, "\t\"io\"\n)", "\t\"io\"\n\t\"time\"\n)")
		return mustReplace(t, src,
			"func corruptWrap(what, msg string, err error) error {\n",
			"func corruptWrap(what, msg string, err error) error {\n\t_ = time.Now()\n")
	})
	if len(diags) == 0 {
		t.Fatal("injecting time.Now two edges below the checkpoint roots produced no snapshotpure finding")
	}
	found := false
	for _, d := range diags {
		if strings.Contains(d.Message, "time.Now") && strings.Contains(d.Message, "corruptWrap") {
			found = true
		}
	}
	if !found {
		var lines []string
		for _, d := range diags {
			lines = append(lines, d.String())
		}
		t.Errorf("no finding names both time.Now and the corruptWrap witness:\n%s", strings.Join(lines, "\n"))
	}
}

// TestMutationTestFileIsLoaded seeds a global-generator draw into a
// real _test.go file of a detrand package and requires the standalone
// loader plus the default suite to report it there: proof that
// LoadPatterns analyzes test files, not just production sources.
func TestMutationTestFileIsLoaded(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns go list -export over the module")
	}
	load := func(patch Patch) []Diagnostic {
		pkgs, err := loadPatterns("../..", []string{"ffsage/internal/bitset"}, patch)
		if err != nil {
			t.Fatal(err)
		}
		return RunProgram(NewProgram(pkgs), DefaultSuite())
	}
	if diags := load(nil); len(diags) != 0 {
		t.Fatalf("unmutated bitset is not clean: %v", diags)
	}
	diags := load(func(name string, src []byte) []byte {
		if filepath.Base(name) != "bitset_test.go" {
			return src
		}
		return mustReplace(t, src, "rand.NewSource(seed)", "rand.NewSource(seed+rand.Int63n(1))")
	})
	found := false
	for _, d := range diags {
		if d.Analyzer == "detrand" && filepath.Base(d.Pos.Filename) == "bitset_test.go" &&
			strings.Contains(d.Message, "rand.Int63n") {
			found = true
		}
	}
	if !found {
		t.Fatalf("a global rand.Int63n seeded into bitset_test.go produced no detrand finding there: %v", diags)
	}
}

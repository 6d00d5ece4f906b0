package trace

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// dirNames lists dir's entries.
func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestReplaceFile: a second call replaces the contents, and a failed
// call leaves no temp file behind.
func TestReplaceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	for _, want := range []string{"first version", "second"} {
		if err := ReplaceFile(path, []byte(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("contents %q, want %q", got, want)
		}
	}
	if got := dirNames(t, dir); !slices.Equal(got, []string{"state"}) {
		t.Errorf("directory holds %v after two replacements, want [state]", got)
	}

	if err := ReplaceFile(filepath.Join(dir, "missing", "state"), []byte("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
	// A non-empty directory at the target makes the rename fail after
	// the temp file was written and synced.
	blocked := filepath.Join(dir, "blocked")
	if err := os.MkdirAll(filepath.Join(blocked, "child"), 0o777); err != nil {
		t.Fatal(err)
	}
	if err := ReplaceFile(blocked, []byte("x")); err == nil {
		t.Error("rename over a non-empty directory succeeded")
	}
	if got := dirNames(t, dir); !slices.Equal(got, []string{"blocked", "state"}) {
		t.Errorf("failed writes left %v, want [blocked state]", got)
	}
}

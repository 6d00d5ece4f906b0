package policy

import (
	"sort"
	"strings"
	"testing"

	"ffsage/internal/core"
	"ffsage/internal/ffs"
)

func TestNamesSortedAndComplete(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	if len(names) < 5 {
		t.Errorf("registry has %d policies, want ≥ 5: %v", len(names), names)
	}
	for _, want := range []string{"ffs", "ffs+realloc", "ffs+extent", "ffs+firstfit", "ffs+bestfit", "ssd"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("registry missing %q: %v", want, names)
		}
	}
	// Slugs must stay unique: they name checkpoint arms and obs scopes.
	slugs := map[string]string{}
	for _, n := range names {
		s := Slug(n)
		if prev, dup := slugs[s]; dup {
			t.Errorf("slug collision: %q and %q both slug to %q", prev, n, s)
		}
		slugs[s] = n
	}
}

func TestRegisterRejections(t *testing.T) {
	if err := Register("", func() ffs.Policy { return core.Original{} }); err == nil {
		t.Error("empty name accepted")
	}
	if err := Register("x", nil); err == nil {
		t.Error("nil factory accepted")
	}
	if err := Register("ffs", func() ffs.Policy { return core.Original{} }); err == nil {
		t.Error("duplicate name accepted")
	}
	if err := Register("not-its-name", func() ffs.Policy { return core.Original{} }); err == nil {
		t.Error("name/factory mismatch accepted")
	}
}

func TestNewBuildsEachRegisteredPolicy(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("New(%q).Name() = %q", name, p.Name())
		}
	}
	_, err := New("nope")
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "ffs+realloc") {
		t.Errorf("unknown-policy error does not list registered names: %v", err)
	}
}

package policy

import (
	"sort"
	"strings"
	"testing"
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
}

// TestTableNamesAndSlugsUnique keeps the registry's identities one to
// one: every entry has its own non-empty name, and every name its own
// slug, since slugs name checkpoint arms and obs scopes.
func TestTableNamesAndSlugsUnique(t *testing.T) {
	names := map[string]bool{}
	slugs := map[string]string{}
	for _, p := range registered {
		n := p.Name()
		if n == "" {
			t.Errorf("%T%+v has an empty name", p, p)
		}
		if names[n] {
			t.Errorf("two registry entries are named %q", n)
		}
		names[n] = true
		s := Slug(n)
		if prev, dup := slugs[s]; dup {
			t.Errorf("slug collision: %q and %q both slug to %q", prev, n, s)
		}
		slugs[s] = n
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

// Package policy is the allocation-policy lab: a registry of named
// ffs.Policy implementations and the contenders that generalize the
// paper's two-way comparison into an N-way tournament.
//
// The paper compares exactly two in-cylinder-group policies — the
// original block-at-a-time allocator and McKusick's realloc
// enhancement (both in internal/core). The registry re-registers those
// two and adds contenders the 1996 study could not or did not
// evaluate:
//
//   - "ffs+extent" reserves a contiguous run at a file's first write
//     and grows it in place, re-homing to the largest free run when the
//     reservation dies (extent.go);
//   - "ffs+firstfit" / "ffs+bestfit" are the realloc policy with its
//     cross-group fallback placed by another free-run discipline
//     (core.Realloc{Fit: ffs.FirstFit} / {Fit: ffs.BestFit});
//   - "ssd" is a seek-free cost model that ignores rotational placement
//     entirely and optimizes only run contiguity (ssd.go).
//
// Registered names are the user-facing policy identity: agesrv job
// specs validate against them, the tournament driver enumerates them,
// and their slugs name checkpoint arms and obs scopes.
// Registration rejects duplicate or mismatched names, so a registered
// name can never silently alias two different policies. (The
// experiment cache does not need names: it keys aged images by the
// policy's full value.)
package policy

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"ffsage/internal/core"
	"ffsage/internal/ffs"
)

var (
	mu        sync.Mutex
	factories = map[string]func() ffs.Policy{}
)

func init() {
	// The paper's two policies first, then the lab's contenders.
	MustRegister("ffs", func() ffs.Policy { return core.Original{} })
	MustRegister("ffs+realloc", func() ffs.Policy { return core.Realloc{} })
	MustRegister("ffs+extent", func() ffs.Policy { return Extent{} })
	MustRegister("ffs+firstfit", func() ffs.Policy { return core.Realloc{Fit: ffs.FirstFit} })
	MustRegister("ffs+bestfit", func() ffs.Policy { return core.Realloc{Fit: ffs.BestFit} })
	MustRegister("ssd", func() ffs.Policy { return SSD{} })
}

// Register adds a named policy factory to the registry. The name must
// be non-empty, unused, and equal to the Name() of the policy the
// factory builds, so a name always means one policy.
func Register(name string, factory func() ffs.Policy) error {
	if name == "" {
		return fmt.Errorf("policy: empty name")
	}
	if factory == nil {
		return fmt.Errorf("policy: nil factory for %q", name)
	}
	if got := factory().Name(); got != name {
		return fmt.Errorf("policy: registering %q but factory builds %q", name, got)
	}
	mu.Lock()
	defer mu.Unlock()
	if _, dup := factories[name]; dup {
		return fmt.Errorf("policy: duplicate name %q", name)
	}
	factories[name] = factory
	return nil
}

// MustRegister is Register for init-time registration with literal
// names.
func MustRegister(name string, factory func() ffs.Policy) {
	if err := Register(name, factory); err != nil {
		//lint:ignore ffsvet/nopanic init-time registration with literal names; a failure is a programmer error pinned by the package's own tests, never reachable from replayed disk state
		panic(err)
	}
}

// Names returns the registered policy names in sorted order — the
// deterministic enumeration every consumer (tournament, flag
// parsing) iterates in.
func Names() []string {
	mu.Lock()
	defer mu.Unlock()
	names := make([]string, 0, len(factories))
	for name := range factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New builds the named policy, or lists the valid names in the error.
func New(name string) (ffs.Policy, error) {
	mu.Lock()
	f := factories[name]
	mu.Unlock()
	if f == nil {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return f(), nil
}

// Resolve is New with the legacy spellings the pre-registry tools
// accepted: the name is lowercased, "orig"/"original" mean "ffs", and
// "realloc" means "ffs+realloc".
func Resolve(name string) (ffs.Policy, error) {
	n := strings.ToLower(name)
	switch n {
	case "orig", "original":
		n = "ffs"
	case "realloc":
		n = "ffs+realloc"
	}
	return New(n)
}

// Slug converts a policy name to its file-safe form: '+' and '(' become
// '-', ')' is dropped. Slugs of registered names stay unique and are
// used for checkpoint arm slugs, obs scopes and benchmark row names.
func Slug(name string) string {
	return strings.NewReplacer("+", "-", "(", "-", ")", "").Replace(name)
}

// Package policy is the allocation-policy lab: a registry of named
// ffs.Policy implementations and the contenders that generalize the
// paper's two-way comparison into an N-way tournament.
//
// The paper compares exactly two in-cylinder-group policies — the
// original block-at-a-time allocator and McKusick's realloc
// enhancement (both in internal/core). The registry lists those
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
// and their slugs name checkpoint arms and obs scopes. The registry is
// a fixed table of policy values; its tests keep every name and slug
// unique, so a name can never alias two different policies. (The
// experiment cache does not need names: it keys aged images by the
// policy's full value.)
package policy

import (
	"fmt"
	"slices"
	"strings"

	"ffsage/internal/core"
	"ffsage/internal/ffs"
)

// registered is the registry: the paper's two policies first, then the
// lab's contenders. Every entry is a stateless value, so New hands out
// the entry itself.
var registered = [...]ffs.Policy{
	core.Original{},
	core.Realloc{},
	Extent{},
	core.Realloc{Fit: ffs.FirstFit},
	core.Realloc{Fit: ffs.BestFit},
	SSD{},
}

// Names returns the registered policy names in sorted order — the
// deterministic enumeration every consumer (tournament, flag
// parsing) iterates in.
func Names() []string {
	names := make([]string, len(registered))
	for i, p := range registered {
		names[i] = p.Name()
	}
	slices.Sort(names)
	return names
}

// New returns the named policy, or lists the valid names in the error.
func New(name string) (ffs.Policy, error) {
	for _, p := range registered {
		if p.Name() == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)",
		name, strings.Join(Names(), ", "))
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

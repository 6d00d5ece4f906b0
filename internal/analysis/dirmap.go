package analysis

import (
	"go/ast"
	"go/types"
)

// DirmapConfig names the packages in which map[string]*File directory
// tables are forbidden (import paths, normalized per PkgPathOf).
type DirmapConfig struct {
	Packages []string
}

// DefaultDirmapConfig guards internal/ffs, where a directory table is
// an entry slice in slot order plus a map[string]int32 name → slot
// index: the slice is what anything walks, so iteration order is the
// deterministic slot order, and it recycles with its File through the
// arena. A map[string]*File there would reopen both regressions the
// slice representation closed — randomized iteration order leaking
// into anything that walks a directory, and a second home for the
// entries that the zero-alloc replay loop would have to keep in step.
func DefaultDirmapConfig() DirmapConfig {
	return DirmapConfig{Packages: []string{"ffsage/internal/ffs"}}
}

// Dirmap builds the directory-table-representation analyzer: inside
// cfg.Packages, any map type with a string key and a *File element —
// declared, composite-literal'd, made, or ranged over — is flagged.
// Test files are exempt; they may build ad-hoc maps to assert against.
func Dirmap(cfg DirmapConfig) *Analyzer {
	guarded := map[string]bool{}
	for _, p := range cfg.Packages {
		guarded[p] = true
	}
	return &Analyzer{
		Name: "dirmap",
		Doc:  "forbid map[string]*File directory tables in packages using entry slices with a name → slot index",
		Run: func(pass *Pass) {
			if !guarded[PkgPathOf(pass.Pkg.Path())] {
				return
			}
			for _, f := range pass.Files {
				if pass.InTestFile(f.Package) {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.MapType:
						if tv, ok := pass.TypesInfo.Types[n]; ok && isDirMap(tv.Type) {
							pass.Reportf(n.Pos(), "map[string]*File directory table: iterates in random order; keep entries in a slice with a map[string]int32 name → slot index instead")
						}
					case *ast.RangeStmt:
						// Catches values of the forbidden shape that were
						// built elsewhere (another package, an any) — the
						// type expression itself is not in this package.
						if tv, ok := pass.TypesInfo.Types[n.X]; ok && isDirMap(tv.Type) {
							if _, declaredHere := n.X.(*ast.MapType); !declaredHere {
								pass.Reportf(n.Pos(), "range over a map[string]*File directory table: iteration order is randomized; range the entries slice instead")
							}
						}
					}
					return true
				})
			}
		},
	}
}

// isDirMap reports whether t is (or has underlying) map[string]*File
// for any named type called File.
func isDirMap(t types.Type) bool {
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	key, ok := m.Key().Underlying().(*types.Basic)
	if !ok || key.Kind() != types.String {
		return false
	}
	ptr, ok := m.Elem().Underlying().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "File"
}

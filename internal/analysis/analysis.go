// Package analysis implements ffsvet, a suite of static invariant
// checkers for this repository. The reproduction's headline claims —
// byte-identical layout-score series across -j levels and across
// checkpoint/resume — rest on source-level invariants: deterministic
// packages draw randomness only from an injected seeded *rand.Rand,
// nothing ordered is emitted from a raw map iteration, errors from the
// mutating ffs API (which may carry *ffs.CorruptionError) are never
// dropped, and library packages do not panic outside the sanctioned
// corruption path. The durability claims rest on whole-program ones:
// acknowledged writes reach an fsync, state files are replaced via
// tmp+rename, checkpoint/snapshot paths never reach wall-clock or
// global-rand reads, and unbounded drain loops poll cancellation. The
// analyzers here enforce all of it; cmd/ffsvet drives them over every
// matched package and its test files, with one call graph spanning
// them all.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Diagnostic) but is self-contained: it depends only
// on the standard library's go/ast, go/types and go/importer, so the
// module keeps its zero-dependency footprint. The whole-program half —
// the call graph, reachability, and Program — lives in callgraph.go.
//
// A finding may be suppressed with a staticcheck-style comment on the
// offending line or the line directly above it:
//
//	//lint:ignore ffsvet/nopanic precondition panic: caller bug, not runtime state
//
// The reason is mandatory; a reasonless //lint:ignore is itself
// reported and does not suppress anything.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. Exactly one of Run and
// RunProgram is set: Run sees one type-checked package at a time (the
// syntactic checkers), RunProgram sees the whole Program and its call
// graph (the reachability checkers).
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments, as "ffsvet/<Name>".
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects a type-checked package and reports findings
	// through the pass.
	Run func(*Pass)
	// RunProgram inspects a whole Program (packages + call graph).
	RunProgram func(*ProgramPass)
}

// A Pass presents one type-checked package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// A Diagnostic is a single finding, positioned and attributed to the
// analyzer that raised it.
type Diagnostic struct {
	Analyzer string // bare analyzer name, e.g. "nopanic"
	Pos      token.Position
	Message  string
}

// String renders the diagnostic in the canonical
// "file:line:col: ffsvet/<name>: message" form used by cmd/ffsvet and
// matched by the golden tests.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: ffsvet/%s: %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a finding at pos. Suppression comments are applied
// afterwards by Run, so analyzers need not know about them.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Callee resolves the called function or method of call, or nil when
// the callee is not a statically known *types.Func (builtins, calls of
// function-typed values, type conversions).
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// A Package bundles everything the analyzers need about one
// type-checked package, however it was loaded (go list or a test
// fixture).
type Package struct {
	Path  string // import path, e.g. "ffsage/internal/ffs"
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// NewInfo returns a types.Info with every map the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// A ProgramPass presents one whole Program to one analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags *[]Diagnostic
}

// ReportAt records a finding at an already-resolved position — the
// call graph stores token.Position, not token.Pos, because nodes span
// packages with distinct FileSets.
func (p *ProgramPass) ReportAt(pos token.Position, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run applies analyzers to the single package pkg. It exists for the
// per-package callers (fixtures); whole-program analyzers see a
// one-package Program.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunProgram(NewProgram([]*Package{pkg}), analyzers)
}

// RunProgram applies analyzers to prog, filters findings through every
// package's //lint:ignore comments, and returns the surviving
// diagnostics sorted by position. Malformed suppression comments are
// reported as findings of the pseudo-analyzer "suppress".
func RunProgram(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range analyzers {
		if a.Run != nil {
			for _, pkg := range prog.Pkgs {
				pass := &Pass{
					Analyzer:  a,
					Fset:      pkg.Fset,
					Files:     pkg.Files,
					Pkg:       pkg.Types,
					TypesInfo: pkg.Info,
					diags:     &raw,
				}
				a.Run(pass)
			}
		}
		if a.RunProgram != nil {
			a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, diags: &raw})
		}
	}

	var out []Diagnostic
	sup := suppressionSet{}
	for _, pkg := range prog.Pkgs {
		pkgSup, malformed := collectSuppressions(pkg.Fset, pkg.Files)
		for file, lines := range pkgSup {
			sup[file] = lines
		}
		out = append(out, malformed...)
	}
	for _, d := range raw {
		if sup.covers(d) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Message < out[j].Message
	})
	return out
}

// PkgPathOf normalizes an import path for allowlist matching: the
// " [pkg.test]" qualifier of test variants and the "_test" suffix of
// external test packages both resolve to the package under test, so an
// allowlist entry covers the package and its tests alike.
func PkgPathOf(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	return strings.TrimSuffix(path, "_test")
}

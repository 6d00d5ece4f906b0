package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxloopConfig scopes the cancellation check to the packages whose
// loops replay traces, simulate days, or drain queues (import paths,
// normalized per PkgPathOf).
type CtxloopConfig struct {
	Packages []string
}

// DefaultCtxloopConfig guards the long-running layers: the WAL queue
// (drain/replay loops), the job manager (dispatch/retry loops), the
// aging engine (day loops), and the runner (experiment loops). A stuck
// loop in any of these turns a cancel request into a hang.
func DefaultCtxloopConfig() CtxloopConfig {
	return CtxloopConfig{Packages: []string{
		"ffsage/internal/queue",
		"ffsage/internal/jobs",
		"ffsage/internal/aging",
		"ffsage/internal/runner",
	}}
}

// Ctxloop builds the cancellation-polling analyzer: an unbounded loop
// (`for {`, `for cond-less;;`, or `for range ch` over a channel) in a
// guarded package must either consult a context.Context itself
// (ctx.Err(), a ctx.Done() select case) or call — possibly many edges
// away, through an interface or a stored function value — something
// that does. Loops whose termination is structurally guaranteed are
// suppressed with //lint:ignore ffsvet/ctxloop plus the termination
// argument, which keeps the argument next to the loop it justifies.
func Ctxloop(cfg CtxloopConfig) *Analyzer {
	guarded := map[string]bool{}
	for _, p := range cfg.Packages {
		guarded[p] = true
	}
	return &Analyzer{
		Name: "ctxloop",
		Doc:  "unbounded replay/day/drain loops must poll context cancellation",
		RunProgram: func(pass *ProgramPass) {
			for _, pkg := range pass.Prog.Pkgs {
				if !guarded[PkgPathOf(pkg.Types.Path())] {
					continue
				}
				checkCtxloops(pass, pkg)
			}
		},
	}
}

func checkCtxloops(pass *ProgramPass, pkg *Package) {
	for _, f := range pkg.Files {
		if strings.HasSuffix(pkg.Fset.Position(f.Package).Filename, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch loop := n.(type) {
				case *ast.ForStmt:
					if loop.Cond != nil {
						return true
					}
					body = loop.Body
				case *ast.RangeStmt:
					// Ranging a slice/map/int is bounded by construction;
					// ranging a channel blocks until the sender closes it,
					// which cancellation cannot force.
					tv, ok := pkg.Info.Types[loop.X]
					if !ok || tv.Type == nil {
						return true
					}
					if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
						return true
					}
					body = loop.Body
				default:
					return true
				}
				if !loopPollsCtx(pass.Prog, pkg, body) {
					pass.ReportAt(pkg.Fset.Position(n.Pos()),
						"unbounded loop in %s neither polls a context.Context nor calls anything that does; cancellation (SIGINT, job timeout) cannot interrupt it — check ctx.Err() per iteration or select on ctx.Done(), or, if termination is structurally guaranteed, suppress with //lint:ignore ffsvet/ctxloop <why it terminates>",
						fd.Name.Name)
				}
				return true
			})
		}
	}
}

// loopPollsCtx reports whether the loop body consults a context —
// directly, or through any call whose closure reaches a
// context-polling function.
func loopPollsCtx(prog *Program, pkg *Package, body *ast.BlockStmt) bool {
	g := prog.Graph
	reaches := func(key string) bool {
		_, ok := prog.Reaches(key, func(n *Node) bool { return n.PollsCtx })
		return ok
	}
	anyReaches := func(keys []string) bool {
		for _, key := range keys {
			if reaches(key) {
				return true
			}
		}
		return false
	}
	polls := false
	ast.Inspect(body, func(n ast.Node) bool {
		if polls {
			return false
		}
		switch n := n.(type) {
		case *ast.SelectorExpr:
			// ctx.Done() / ctx.Err() in the body itself.
			if n.Sel.Name == "Done" || n.Sel.Name == "Err" {
				if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil &&
					types.TypeString(tv.Type, qualifier) == "context.Context" {
					polls = true
				}
			}
		case *ast.CallExpr:
			fun := ast.Unparen(n.Fun)
			var id *ast.Ident
			switch f := fun.(type) {
			case *ast.Ident:
				id = f
			case *ast.SelectorExpr:
				id = f.Sel
			}
			if id != nil {
				if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
					sig, _ := fn.Type().(*types.Signature)
					if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
						// Interface dispatch: the loop is covered if any
						// concrete implementation polls.
						if anyReaches(g.methodIndex[fn.Name()+"|"+sigString(sig)]) {
							polls = true
						}
						return !polls
					}
					if reaches(FuncKey(fn)) {
						polls = true
					}
					return !polls
				}
			}
			// A call of a function-typed value: covered if any bound
			// function of this signature polls.
			if tv, ok := pkg.Info.Types[n.Fun]; ok && tv.Type != nil && !tv.IsType() {
				if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
					if anyReaches(g.boundBySig[sigString(sig)]) {
						polls = true
					}
				}
			}
		}
		return !polls
	})
	return polls
}

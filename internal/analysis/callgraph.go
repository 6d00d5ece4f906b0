package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// This file is the whole-program half of ffsvet: a conservative,
// types-resolved call graph built once per Program, which the
// reachability analyzers (fsyncack, atomicwrite, snapshotpure, ctxloop)
// query. The graph is deliberately simple — it must stay auditable —
// and errs in the conservative direction for each client:
//
//   - Static calls resolve to their *types.Func and are linked by a
//     stable textual key (package path + qualified name), so a call
//     into a sibling package links to that package's own definition
//     even though the two type-checks used distinct object identities.
//   - Interface dispatch is expanded by implementing-type union: a call
//     to an interface method adds edges to every concrete method in
//     the program with the same name and signature. Matching by
//     name+signature over-approximates the true implements relation,
//     which is the safe direction for taint ("may reach").
//   - Function values are tracked flow-insensitively: every function
//     or method whose value is mentioned outside call position — and
//     every func literal not immediately invoked — joins a global
//     bound set, and a call through a function-typed value adds edges
//     to every bound function with an identical signature.
//   - Func literals are synthetic nodes (keyed by position); literals
//     invoked at their definition site (including `go` and `defer`)
//     get a direct edge from the enclosing function.
//
// Functions outside the analyzed packages (standard library, packages
// loaded only as export data) appear as body-less leaf nodes, which is
// exactly what sink matching needs: `time.Now` is identified by key,
// not by AST.

// A Node is one function in the call graph.
type Node struct {
	Key     string         // stable identity, e.g. "os.WriteFile" or "(*ffsage/internal/queue.WAL).append"
	Pkg     string         // normalized import path of the defining package ("" for leaves outside the program)
	Display string         // short human form for witness paths, e.g. "(*WAL).append"
	Pos     token.Position // declaration site (zero for leaves)
	InTest  bool           // declared in a _test.go file
	HasBody bool           // body analyzed (false for leaves)
	Edges   []Edge

	// PollsCtx records that the body itself consults a
	// context.Context (ctx.Err() or ctx.Done()); see ctxloop.
	PollsCtx bool

	ifaceCalls []siteSig // interface-method calls awaiting union expansion
	dynCalls   []siteSig // function-value calls awaiting bound-set expansion
}

// An Edge is one call site: who is (or may be) called, from where.
type Edge struct {
	Callee string
	Pos    token.Position
	// Dyn marks edges added by interface or function-value expansion;
	// a !Dyn edge is a statically resolved direct call.
	Dyn bool
}

type siteSig struct {
	name string // method name ("" for function-value calls)
	sig  string // normalized signature string
	pos  token.Position
}

// A CallGraph holds every node of one Program, keyed by Node.Key.
type CallGraph struct {
	Nodes map[string]*Node

	methodIndex map[string][]string // name+"|"+sig -> concrete method keys
	boundBySig  map[string][]string // sig -> bound function keys
}

// A Program is the unit the whole-program analyzers run over: one or
// more type-checked packages and the call graph spanning them.
type Program struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// NewProgram builds the call graph over pkgs.
func NewProgram(pkgs []*Package) *Program {
	g := &CallGraph{
		Nodes:       map[string]*Node{},
		methodIndex: map[string][]string{},
		boundBySig:  map[string][]string{},
	}
	p := &Program{Pkgs: pkgs, Graph: g}
	for _, pkg := range pkgs {
		g.addPackage(pkg)
	}
	g.expand()
	return p
}

var testVariantRE = regexp.MustCompile(` \[[^\]]*\]`)

// normalizeKey strips test-variant qualifiers (`pkg [pkg.test]`) so a
// package and its internal test build share one node per function.
func normalizeKey(s string) string {
	if strings.Contains(s, " [") {
		s = testVariantRE.ReplaceAllString(s, "")
	}
	return s
}

// qualifier renders package paths in full, normalized form inside
// signature strings, so signatures compare equal across packages that
// type-checked the same named types under different object identities.
func qualifier(p *types.Package) string {
	return PkgPathOf(p.Path())
}

// sigString normalizes a signature for matching. The receiver is not
// part of a Go signature string, so method values and plain functions
// with the same parameter/result shape compare equal — which is what
// bound-method tracking needs.
func sigString(sig *types.Signature) string {
	return types.TypeString(sig, qualifier)
}

// FuncKey returns the stable graph key for fn.
func FuncKey(fn *types.Func) string {
	if orig := fn.Origin(); orig != nil {
		fn = orig
	}
	return normalizeKey(fn.FullName())
}

func displayName(fn *types.Func) string {
	full := FuncKey(fn)
	// Trim the package path down to its last element for readability:
	// "(*ffsage/internal/queue.WAL).append" -> "(*queue.WAL).append".
	if fn.Pkg() != nil {
		path := PkgPathOf(fn.Pkg().Path())
		if i := strings.LastIndex(path, "/"); i >= 0 {
			return strings.ReplaceAll(full, path+".", path[i+1:]+".")
		}
	}
	return full
}

// node returns (creating if needed) the graph node for key.
func (g *CallGraph) node(key string) *Node {
	n := g.Nodes[key]
	if n == nil {
		n = &Node{Key: key, Display: key}
		g.Nodes[key] = n
	}
	return n
}

// addPackage walks every function body in pkg into the graph.
func (g *CallGraph) addPackage(pkg *Package) {
	pkgPath := PkgPathOf(pkg.Types.Path())
	for _, f := range pkg.Files {
		inTest := strings.HasSuffix(pkg.Fset.Position(f.Package).Filename, "_test.go")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			n := g.node(FuncKey(fn))
			n.Pkg = pkgPath
			n.Display = displayName(fn)
			n.Pos = pkg.Fset.Position(fd.Pos())
			n.InTest = inTest
			n.HasBody = true
			b := &bodyWalker{g: g, pkg: pkg, pkgPath: pkgPath, inTest: inTest, node: n}
			b.walk(fd.Body)
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				if !types.IsInterface(sig.Recv().Type()) {
					mk := fn.Name() + "|" + sigString(sig)
					g.methodIndex[mk] = append(g.methodIndex[mk], n.Key)
				}
			}
		}
	}
}

// bodyWalker builds one function node's edges, spawning synthetic
// nodes for the func literals it encounters.
type bodyWalker struct {
	g       *CallGraph
	pkg     *Package
	pkgPath string
	inTest  bool
	node    *Node

	// invoked marks func literals that are the Fun of a call (their
	// edge is direct, so they are not bound values); calledIdents marks
	// identifiers in call position (a call is not a value mention).
	invoked      map[*ast.FuncLit]bool
	calledIdents map[*ast.Ident]bool
}

func (b *bodyWalker) pos(p token.Pos) token.Position { return b.pkg.Fset.Position(p) }

// litNode creates the synthetic node for a func literal.
func (b *bodyWalker) litNode(lit *ast.FuncLit) *Node {
	pos := b.pos(lit.Pos())
	key := fmt.Sprintf("%s.func@%s:%d:%d", b.pkgPath, pos.Filename, pos.Line, pos.Column)
	n := b.g.node(key)
	n.Pkg = b.pkgPath
	n.Display = fmt.Sprintf("func literal at %s:%d (in %s)", shortFile(pos.Filename), pos.Line, b.node.Display)
	n.Pos = pos
	n.InTest = b.inTest
	n.HasBody = true
	return n
}

func shortFile(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// walk visits one function body attributed to b.node. A node's
// children are visited in syntax order, so a CallExpr is seen before
// the identifier in its function position — call() marks that
// identifier, and the Ident case then knows it was a call, not a value
// mention. Nested func literals recurse with a fresh walker bound to
// their synthetic node.
func (b *bodyWalker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			ln := b.litNode(n)
			nb := &bodyWalker{g: b.g, pkg: b.pkg, pkgPath: b.pkgPath, inTest: b.inTest, node: ln}
			nb.walk(n.Body)
			// A literal that is not immediately invoked is a bound
			// function value; call() handles the direct-invocation case.
			if !b.invoked[n] {
				if tv, ok := b.pkg.Info.Types[n]; ok {
					if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
						s := sigString(sig)
						b.g.boundBySig[s] = append(b.g.boundBySig[s], ln.Key)
					}
				}
			}
			return false // literal body handled by nb
		case *ast.CallExpr:
			b.call(n)
			// Arguments and the Fun sub-expression are still visited,
			// for bound values and nested calls.
			return true
		case *ast.SelectorExpr:
			b.pollCheck(n)
		case *ast.Ident:
			b.maybeBind(n)
		}
		return true
	})
}

// pollCheck marks the node as context-polling when it selects Done or
// Err on a context.Context value.
func (b *bodyWalker) pollCheck(sel *ast.SelectorExpr) {
	if sel.Sel.Name != "Done" && sel.Sel.Name != "Err" {
		return
	}
	tv, ok := b.pkg.Info.Types[sel.X]
	if !ok || tv.Type == nil {
		return
	}
	if types.TypeString(tv.Type, qualifier) == "context.Context" {
		b.node.PollsCtx = true
	}
}

// call records the edges for one call expression.
func (b *bodyWalker) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	pos := b.pos(call.Pos())

	if lit, ok := fun.(*ast.FuncLit); ok {
		// Immediately-invoked literal: direct edge; mark it so the
		// FuncLit case skips binding it.
		if b.invoked == nil {
			b.invoked = map[*ast.FuncLit]bool{}
		}
		b.invoked[lit] = true
		ln := b.litNode(lit)
		b.node.Edges = append(b.node.Edges, Edge{Callee: ln.Key, Pos: pos})
		return
	}

	// Conversions and builtins are not calls for graph purposes.
	if tv, ok := b.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return
	}

	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		id = f.Sel
	}
	if id != nil {
		if b.calledIdents == nil {
			b.calledIdents = map[*ast.Ident]bool{}
		}
		b.calledIdents[id] = true
		switch obj := b.pkg.Info.Uses[id].(type) {
		case *types.Builtin:
			return
		case *types.Func:
			edge := Edge{Callee: FuncKey(obj), Pos: pos}
			b.node.Edges = append(b.node.Edges, edge)
			leaf := b.g.node(edge.Callee)
			if leaf.Display == leaf.Key && obj.Pkg() != nil {
				leaf.Display = displayName(obj)
			}
			// A call through an interface also fans out to every
			// concrete method of the same name and signature.
			if b.isInterfaceCall(fun, obj) {
				if sig, ok := obj.Type().(*types.Signature); ok {
					b.node.ifaceCalls = append(b.node.ifaceCalls,
						siteSig{name: obj.Name(), sig: sigString(sig), pos: pos})
				}
			}
			return
		}
	}

	// A call of a function-typed value (variable, field, parameter,
	// result of another call): resolved against the bound set.
	if tv, ok := b.pkg.Info.Types[call.Fun]; ok && tv.Type != nil {
		if sig, ok := tv.Type.Underlying().(*types.Signature); ok {
			b.node.dynCalls = append(b.node.dynCalls,
				siteSig{sig: sigString(sig), pos: pos})
		}
	}
}

// isInterfaceCall reports whether the (method) call dispatches through
// an interface value.
func (b *bodyWalker) isInterfaceCall(fun ast.Expr, fn *types.Func) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := b.pkg.Info.Selections[sel]
	if !ok {
		// Package-qualified call (os.WriteFile): not dispatch.
		return false
	}
	if s.Kind() != types.MethodVal {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// maybeBind adds the named function to the bound set when id mentions
// it as a value rather than calling it (passed as a callback, stored in
// a struct field, assigned to a variable).
func (b *bodyWalker) maybeBind(id *ast.Ident) {
	if b.calledIdents[id] {
		return
	}
	fn, ok := b.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	key := FuncKey(fn)
	b.g.boundBySig[sigString(sig)] = append(b.g.boundBySig[sigString(sig)], key)
	leaf := b.g.node(key)
	if leaf.Display == leaf.Key && fn.Pkg() != nil {
		leaf.Display = displayName(fn)
	}
	// Mentioning a function's value also means the mentioner may call
	// it; a direct edge here keeps value-then-call within one function
	// from needing dataflow. Conservative: taint may over-approximate.
	b.node.Edges = append(b.node.Edges, Edge{Callee: key, Pos: b.pos(id.Pos()), Dyn: true})
}

// expand resolves the deferred interface and function-value calls now
// that every package has contributed its methods and bound functions.
func (g *CallGraph) expand() {
	for s := range g.boundBySig {
		g.boundBySig[s] = dedupe(g.boundBySig[s])
	}
	for s := range g.methodIndex {
		g.methodIndex[s] = dedupe(g.methodIndex[s])
	}
	for _, n := range g.SortedNodes() {
		for _, ic := range n.ifaceCalls {
			for _, key := range g.methodIndex[ic.name+"|"+ic.sig] {
				n.Edges = append(n.Edges, Edge{Callee: key, Pos: ic.pos, Dyn: true})
			}
		}
		for _, dc := range n.dynCalls {
			for _, key := range g.boundBySig[dc.sig] {
				n.Edges = append(n.Edges, Edge{Callee: key, Pos: dc.pos, Dyn: true})
			}
		}
		n.ifaceCalls, n.dynCalls = nil, nil
	}
}

func dedupe(keys []string) []string {
	sort.Strings(keys)
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			out = append(out, k)
		}
	}
	return out
}

// SortedNodes returns the graph's nodes ordered by key, for
// deterministic iteration (diagnostics are position-sorted afterwards,
// but witness paths must not depend on map order either).
func (g *CallGraph) SortedNodes() []*Node {
	keys := make([]string, 0, len(g.Nodes))
	for k := range g.Nodes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	nodes := make([]*Node, len(keys))
	for i, k := range keys {
		nodes[i] = g.Nodes[k]
	}
	return nodes
}

// sortedEdges returns n's edges ordered by callee key then position,
// deduplicated, for deterministic traversal.
func sortedEdges(n *Node) []Edge {
	edges := append([]Edge(nil), n.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Callee != edges[j].Callee {
			return edges[i].Callee < edges[j].Callee
		}
		return posLess(edges[i].Pos, edges[j].Pos)
	})
	out := edges[:0]
	for i, e := range edges {
		if i == 0 || edges[i-1].Callee != e.Callee {
			out = append(out, e)
		}
	}
	return out
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// A Path is a witness call chain, rendered for diagnostics.
type Path []*Node

// String renders "a → b → c" using display names.
func (p Path) String() string {
	parts := make([]string, len(p))
	for i, n := range p {
		parts[i] = n.Display
	}
	return strings.Join(parts, " → ")
}

// Reaches reports whether pred holds for any node reachable from the
// node keyed start (inclusive), returning a shortest witness path.
func (p *Program) Reaches(start string, pred func(*Node) bool) (Path, bool) {
	g := p.Graph
	root := g.Nodes[start]
	if root == nil {
		return nil, false
	}
	parent := map[string]string{start: ""}
	queue := []string{start}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		n := g.Nodes[key]
		if n == nil {
			continue
		}
		if pred(n) {
			var path Path
			for k := key; k != ""; k = parent[k] {
				path = append(Path{g.Nodes[k]}, path...)
			}
			return path, true
		}
		for _, e := range sortedEdges(n) {
			if _, seen := parent[e.Callee]; !seen {
				parent[e.Callee] = key
				queue = append(queue, e.Callee)
			}
		}
	}
	return nil, false
}

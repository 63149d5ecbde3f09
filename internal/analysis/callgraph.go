package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module call graph that backs the fact store
// (facts.go) and sharecheck, the analyzer that reads it. The graph is
// intentionally conservative:
//
//   - static calls resolve to their *types.Func callee;
//   - interface method calls resolve by Class Hierarchy Analysis: every
//     named module type implementing the interface contributes its method
//     as a possible target (stdlib implementers contribute their intrinsic
//     facts but no node);
//   - a function or method used as a *value* (method value, function
//     passed as callback, stored in a struct field) adds a reference edge,
//     because the graph cannot see where the value is eventually invoked;
//   - calls through plain function-typed values resolve to nothing — the
//     reference edges created where those values were formed keep the
//     facts sound, but a value produced outside the module is a known gap.
//
// Facts therefore over-approximate: a reported fact may be unreachable in
// practice, but an absent fact is trustworthy within the gaps above.

// FuncNode is one declared module function or method in the call graph.
type FuncNode struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl

	// Calls lists every resolved call and value-reference site in body
	// source order.
	Calls []*Call
	// Intrinsics are the facts this body establishes directly: a go
	// statement. Stdlib callees' facts ride on their call sites (Std).
	Intrinsics FactSet

	// Facts is the transitive fact set, computed bottom-up over SCCs.
	Facts FactSet

	sites map[*ast.CallExpr]*Call // call expression -> site

	index, lowlink int // Tarjan bookkeeping
	onStack        bool
}

// String renders the function as package.Name or package.(*Recv).Name.
func (n *FuncNode) String() string { return funcDisplay(n.Fn) }

// SiteAt returns the call site recorded for a call expression.
func (n *FuncNode) SiteAt(call *ast.CallExpr) *Call { return n.sites[call] }

// Call is one call or function-value reference inside a function body.
type Call struct {
	Pos  token.Pos
	Expr *ast.CallExpr // nil for value references
	// Targets are the module functions possibly invoked here.
	Targets []*FuncNode
	// Callee is the resolved callee object: the static callee for direct
	// calls, the interface method for dispatch sites, the referenced
	// function for value references, nil for dynamic calls.
	Callee *types.Func
	// Std carries facts contributed by non-module callees at this site.
	Std FactSet
	// Desc describes the callee for diagnostics.
	Desc string
	// sync is the site's synchronization role, classified once here for
	// every concurrency analyzer; lock names the lock an acquire or
	// release operates on.
	sync syncKind
	lock string
	// Dispatch marks a site resolved by interface CHA.
	Dispatch bool
}

// Facts returns the union of the site's stdlib facts and every possible
// target's transitive facts.
func (c *Call) Facts() FactSet {
	f := c.Std
	for _, t := range c.Targets {
		f |= t.Facts
	}
	return f
}

// CallGraph is the whole-module call graph plus the per-function facts
// derived from it.
type CallGraph struct {
	nodes map[*types.Func]*FuncNode
	order []*FuncNode // deterministic: by import path, then position
	named []*types.Named
	cha   map[chaKey][]*types.Func
}

type chaKey struct {
	iface *types.Interface
	id    string
}

// NewCallGraph builds the graph over the given packages (normally one
// whole module) and computes transitive facts.
func NewCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		nodes: make(map[*types.Func]*FuncNode),
		cha:   make(map[chaKey][]*types.Func),
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				g.nodes[fn] = &FuncNode{
					Fn: fn, Pkg: pkg, Decl: fd,
					sites: make(map[*ast.CallExpr]*Call),
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.named = append(g.named, named)
		}
	}
	sort.Slice(g.named, func(i, j int) bool {
		a, b := g.named[i].Obj(), g.named[j].Obj()
		if a.Pkg().Path() != b.Pkg().Path() {
			return a.Pkg().Path() < b.Pkg().Path()
		}
		return a.Name() < b.Name()
	})
	for _, n := range g.nodes {
		g.order = append(g.order, n)
	}
	sort.Slice(g.order, func(i, j int) bool {
		a, b := g.order[i], g.order[j]
		if a.Pkg.ImportPath != b.Pkg.ImportPath {
			return a.Pkg.ImportPath < b.Pkg.ImportPath
		}
		return a.Decl.Pos() < b.Decl.Pos()
	})
	for _, n := range g.order {
		if n.Decl.Body != nil {
			g.walkBody(n)
		}
	}
	g.summarize()
	return g
}

// Nodes returns every function in deterministic order.
func (g *CallGraph) Nodes() []*FuncNode { return g.order }

// NodeOf returns the node for a module function, or nil.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode {
	if fn == nil {
		return nil
	}
	if n, ok := g.nodes[fn]; ok {
		return n
	}
	return g.nodes[fn.Origin()]
}

// implementers resolves an interface method to the corresponding methods
// of every named module type implementing the interface (CHA).
func (g *CallGraph) implementers(iface *types.Interface, m *types.Func) []*types.Func {
	key := chaKey{iface, m.Id()}
	if r, ok := g.cha[key]; ok {
		return r
	}
	var out []*types.Func
	for _, named := range g.named {
		pt := types.NewPointer(named)
		if !types.Implements(named, iface) && !types.Implements(pt, iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(pt, false, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			out = append(out, fn)
		}
	}
	g.cha[key] = out
	return out
}

// walkBody records the function's call sites, value references and
// go statements. A function literal's body is walked as part of the
// enclosing body: it is assumed to run within the enclosing function's
// dynamic extent (conservatively, even when the closure is stored for
// later).
func (g *CallGraph) walkBody(n *FuncNode) {
	info := n.Pkg.Info
	claimed := make(map[ast.Node]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			claimed[ast.Unparen(x.Fun)] = true
			g.addCall(n, x)

		case *ast.SelectorExpr:
			claimed[x.Sel] = true
			if claimed[x] {
				return true
			}
			if sel, ok := info.Selections[x]; ok {
				if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
					m, _ := sel.Obj().(*types.Func)
					if m == nil {
						return true
					}
					if iface, ok := sel.Recv().Underlying().(*types.Interface); ok && sel.Kind() == types.MethodVal {
						g.addDispatch(n, x.Pos(), nil, sel.Recv(), iface, m)
					} else {
						g.addRef(n, x.Pos(), m)
					}
				}
			} else if fn, ok := info.Uses[x.Sel].(*types.Func); ok {
				g.addRef(n, x.Pos(), fn) // qualified pkg.Func used as a value
			}

		case *ast.Ident:
			if claimed[x] {
				return true
			}
			if fn, ok := info.Uses[x].(*types.Func); ok {
				g.addRef(n, x.Pos(), fn) // local function used as a value
			}

		case *ast.GoStmt:
			n.Intrinsics |= FactSpawnsGoroutine
		}
		return true
	})
}

// addCall resolves one call expression.
func (g *CallGraph) addCall(n *FuncNode, call *ast.CallExpr) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return // a conversion
	}

	var obj types.Object
	var sel *types.Selection
	switch f := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[f]
	case *ast.SelectorExpr:
		if s, ok := info.Selections[f]; ok {
			sel = s
			obj = s.Obj()
		} else {
			obj = info.Uses[f.Sel]
		}
	case *ast.IndexExpr:
		if id, ok := ast.Unparen(f.X).(*ast.Ident); ok {
			obj = info.Uses[id] // generic instantiation f[T](...)
		}
	}

	switch callee := obj.(type) {
	case *types.Builtin:
		return // len, append, panic, ...: nothing to resolve
	case *types.Func:
		if sel != nil && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				g.addDispatch(n, call.Pos(), call, sel.Recv(), iface, callee)
				return
			}
		}
		c := &Call{Pos: call.Pos(), Expr: call, Desc: funcDisplay(callee), Callee: callee}
		if tn := g.NodeOf(callee); tn != nil {
			c.Targets = []*FuncNode{tn}
		} else {
			c.Std, c.sync = stdFacts(callee), syncKindOf(callee)
			if c.sync == lockAcquire || c.sync == lockRelease {
				if c.lock = lockName(info, call, callee); c.lock == "" {
					c.sync = lockOther
				}
			}
		}
		n.Calls = append(n.Calls, c)
		n.sites[call] = c
	default:
		// Call through a function-typed value: the reference edge added
		// where the value was formed keeps facts sound.
		c := &Call{Pos: call.Pos(), Expr: call, Desc: "dynamic call through function value"}
		n.Calls = append(n.Calls, c)
		n.sites[call] = c
	}
}

// addDispatch resolves an interface method call or method value by CHA.
func (g *CallGraph) addDispatch(n *FuncNode, pos token.Pos, expr *ast.CallExpr, recv types.Type, iface *types.Interface, m *types.Func) {
	c := &Call{
		Pos: pos, Expr: expr, Dispatch: true, Callee: m,
		Desc: "interface method " + typeString(recv) + "." + m.Name(),
	}
	for _, fn := range g.implementers(iface, m) {
		if tn := g.NodeOf(fn); tn != nil {
			c.Targets = append(c.Targets, tn)
		} else {
			c.Std |= stdFacts(fn)
		}
	}
	n.Calls = append(n.Calls, c)
	if expr != nil {
		n.sites[expr] = c
	}
}

// addRef records a function or method used as a value.
func (g *CallGraph) addRef(n *FuncNode, pos token.Pos, fn *types.Func) {
	c := &Call{Pos: pos, Desc: "reference to " + funcDisplay(fn), Callee: fn}
	if tn := g.NodeOf(fn); tn != nil {
		c.Targets = []*FuncNode{tn}
	} else {
		c.Std = stdFacts(fn)
		if c.Std == 0 {
			return // fact-free stdlib reference: nothing to record
		}
	}
	n.Calls = append(n.Calls, c)
}

// spans is a set of half-open position ranges: sharecheck's go-statement
// regions and the spans it excludes from a scan.
type spans []span

type span struct{ lo, hi token.Pos }

func (s spans) covers(p token.Pos) bool {
	for _, r := range s {
		if r.lo <= p && p < r.hi {
			return true
		}
	}
	return false
}

// funcDisplay renders a function as package.Name or package.(*Recv).Name.
func funcDisplay(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	out := fn.Pkg().Name() + "."
	if r := recvType(fn); r != "" {
		out += "(" + r + ")."
	}
	return out + fn.Name()
}

// recvType returns the receiver type as written ("*Pool", "LRU"), or "".
func recvType(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		t, ptr = p.Elem(), "*"
	}
	if named, ok := t.(*types.Named); ok {
		return ptr + named.Obj().Name()
	}
	return ptr + t.String()
}

// recvBase returns the receiver's named type without the pointer, or "".
func recvBase(fn *types.Func) string {
	return strings.TrimPrefix(recvType(fn), "*")
}

// typeString renders a type with package-name (not path) qualifiers.
func typeString(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

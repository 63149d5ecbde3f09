package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-module call graph that backs the fact store
// (facts.go) and the fact-consuming analyzers (lockcheck, hotalloc,
// iopurity). The graph is intentionally conservative:
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
	// Intrinsics are the facts this body establishes directly (channel
	// operations, calls into fact-bearing stdlib, ...).
	Intrinsics []Intrinsic
	// Allocs are the body's heap-allocation sites (hotalloc's raw
	// material; they also induce the allocates fact).
	Allocs []AllocSite

	// Facts is the transitive fact set, computed bottom-up over SCCs.
	Facts FactSet

	eff EffectSet // transitive effect set (or the effect table's contract)
	scc int       // the function's SCC: calls within one are traced as clumps

	sites map[*ast.CallExpr]*Call // call expression -> site
	via   map[FactSet]*witness    // single fact bit -> how it was acquired

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
	// function for value references, nil for dynamic calls. The effect
	// store matches it against the effect table.
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
	// Ref marks a value reference rather than a call.
	Ref bool
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

// Intrinsic is one fact a function body establishes directly.
type Intrinsic struct {
	Fact FactSet
	Pos  token.Pos
	What string
}

// AllocSite is one heap-allocation site.
type AllocSite struct {
	Pos  token.Pos
	What string
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
					via:   make(map[FactSet]*witness),
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

// walkBody records the function's call sites, value references,
// intrinsics, and allocation sites.
func (g *CallGraph) walkBody(n *FuncNode) {
	info := n.Pkg.Info
	exempt := exemptRanges(n.Pkg, n.Decl.Body)
	claimed := make(map[ast.Node]bool)
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			claimed[ast.Unparen(x.Fun)] = true
			g.addCall(n, x, exempt)

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
						g.addDispatch(n, x.Pos(), nil, sel.Recv(), iface, m, true)
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

		case *ast.FuncLit:
			if !exempt.covers(x.Pos()) {
				n.Allocs = append(n.Allocs, AllocSite{x.Pos(), "closure (func literal)"})
			}
			// Keep descending: the literal's body executes within this
			// function's dynamic extent (conservatively, even when the
			// closure is stored for later).

		case *ast.UnaryExpr:
			switch x.Op {
			case token.AND:
				if lit, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					claimed[lit] = true
					if !exempt.covers(x.Pos()) {
						n.Allocs = append(n.Allocs, AllocSite{x.Pos(), "address-taken composite literal " + typeOfString(info, lit)})
					}
				}
			case token.ARROW:
				n.Intrinsics = append(n.Intrinsics, Intrinsic{FactMayBlock, x.Pos(), "channel receive"})
			}

		case *ast.CompositeLit:
			if claimed[x] {
				return true
			}
			switch info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				if !exempt.covers(x.Pos()) {
					n.Allocs = append(n.Allocs, AllocSite{x.Pos(), "slice literal " + typeOfString(info, x)})
				}
			case *types.Map:
				if !exempt.covers(x.Pos()) {
					n.Allocs = append(n.Allocs, AllocSite{x.Pos(), "map literal " + typeOfString(info, x)})
				}
			}

		case *ast.SendStmt:
			n.Intrinsics = append(n.Intrinsics, Intrinsic{FactMayBlock, x.Pos(), "channel send"})
		case *ast.SelectStmt:
			n.Intrinsics = append(n.Intrinsics, Intrinsic{FactMayBlock, x.Pos(), "select statement"})
			// With two or more communication cases the scheduler picks
			// among simultaneously ready ones pseudo-randomly.
			cases := 0
			for _, cl := range x.Body.List {
				if c, ok := cl.(*ast.CommClause); ok && c.Comm != nil {
					cases++
				}
			}
			if cases >= 2 {
				n.Intrinsics = append(n.Intrinsics, Intrinsic{FactNondet, x.Pos(), "select with multiple communication cases"})
			}
		case *ast.GoStmt:
			n.Intrinsics = append(n.Intrinsics, Intrinsic{FactSpawnsGoroutine, x.Pos(), "go statement"})
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Chan:
					n.Intrinsics = append(n.Intrinsics, Intrinsic{FactMayBlock, x.Pos(), "range over channel"})
				case *types.Map:
					// Key or value bound: iteration order varies run to run.
					// A keyless `for range m {}` only counts iterations.
					if x.Key != nil || x.Value != nil {
						n.Intrinsics = append(n.Intrinsics, Intrinsic{FactNondet, x.Pos(), "range over map (iteration order)"})
					}
				}
			}
		}
		return true
	})
}

// addCall resolves one call expression.
func (g *CallGraph) addCall(n *FuncNode, call *ast.CallExpr, exempt spans) {
	info := n.Pkg.Info
	fun := ast.Unparen(call.Fun)

	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		g.addConversionAlloc(n, call, exempt)
		return
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
		g.addBuiltinAlloc(n, call, callee.Name(), exempt)
		return
	case *types.Func:
		if sel != nil && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				g.addDispatch(n, call.Pos(), call, sel.Recv(), iface, callee, false)
				g.addBoxing(n, call, exempt)
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
			g.addStdIntrinsic(n, c)
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
	g.addBoxing(n, call, exempt)
}

// addDispatch resolves an interface method call or method value by CHA.
func (g *CallGraph) addDispatch(n *FuncNode, pos token.Pos, expr *ast.CallExpr, recv types.Type, iface *types.Interface, m *types.Func, ref bool) {
	c := &Call{
		Pos: pos, Expr: expr, Dispatch: true, Ref: ref, Callee: m,
		Desc: "interface method " + typeString(recv) + "." + m.Name(),
	}
	for _, fn := range g.implementers(iface, m) {
		if tn := g.NodeOf(fn); tn != nil {
			c.Targets = append(c.Targets, tn)
		} else {
			c.Std |= stdFacts(fn)
		}
	}
	g.addStdIntrinsic(n, c)
	n.Calls = append(n.Calls, c)
	if expr != nil {
		n.sites[expr] = c
	}
}

// addRef records a function or method used as a value.
func (g *CallGraph) addRef(n *FuncNode, pos token.Pos, fn *types.Func) {
	c := &Call{Pos: pos, Ref: true, Desc: "reference to " + funcDisplay(fn), Callee: fn}
	if tn := g.NodeOf(fn); tn != nil {
		c.Targets = []*FuncNode{tn}
	} else {
		c.Std = stdFacts(fn)
		if c.Std == 0 {
			return // fact-free stdlib reference: nothing to record
		}
		g.addStdIntrinsic(n, c)
	}
	n.Calls = append(n.Calls, c)
}

// addStdIntrinsic turns a site's stdlib facts into intrinsics so witness
// chains can explain them.
func (g *CallGraph) addStdIntrinsic(n *FuncNode, c *Call) {
	if c.Std != 0 {
		n.Intrinsics = append(n.Intrinsics, Intrinsic{c.Std, c.Pos, "call to " + c.Desc})
	}
}

// addBuiltinAlloc records allocation sites for allocating builtins.
func (g *CallGraph) addBuiltinAlloc(n *FuncNode, call *ast.CallExpr, name string, exempt spans) {
	if exempt.covers(call.Pos()) {
		return
	}
	switch name {
	case "make":
		n.Allocs = append(n.Allocs, AllocSite{call.Pos(), "make"})
	case "new":
		n.Allocs = append(n.Allocs, AllocSite{call.Pos(), "new"})
	case "append":
		n.Allocs = append(n.Allocs, AllocSite{call.Pos(), "append (may grow backing array)"})
	}
}

// addConversionAlloc flags string<->[]byte/[]rune conversions, which copy.
func (g *CallGraph) addConversionAlloc(n *FuncNode, call *ast.CallExpr, exempt spans) {
	if len(call.Args) != 1 || exempt.covers(call.Pos()) {
		return
	}
	info := n.Pkg.Info
	dst := info.TypeOf(call.Fun)
	src := info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if isStringSliceConv(dst.Underlying(), src.Underlying()) || isStringSliceConv(src.Underlying(), dst.Underlying()) {
		n.Allocs = append(n.Allocs, AllocSite{call.Pos(), "string conversion copies"})
	}
}

func isStringSliceConv(a, b types.Type) bool {
	if basic, ok := a.(*types.Basic); !ok || basic.Info()&types.IsString == 0 {
		return false
	}
	s, ok := b.(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune || e.Kind() == types.Uint8 || e.Kind() == types.Int32)
}

// addBoxing flags arguments converted to interface parameters, which box
// non-pointer-shaped values onto the heap.
func (g *CallGraph) addBoxing(n *FuncNode, call *ast.CallExpr, exempt spans) {
	info := n.Pkg.Info
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // arg... passes the slice itself
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.Types[arg]
		if at.Type == nil || at.Value != nil || at.IsNil() || types.IsInterface(at.Type) {
			continue
		}
		if pointerShaped(at.Type) || exempt.covers(arg.Pos()) {
			continue
		}
		n.Allocs = append(n.Allocs, AllocSite{arg.Pos(), "interface boxing of " + typeString(at.Type) + " argument"})
	}
}

// pointerShaped reports whether values of t fit in an interface word
// without a heap allocation.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// spans is a set of position ranges exempt from allocation reporting.
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

// exemptRanges computes the body regions where allocations are expected
// and cold, so hotalloc does not drown real findings in error-path noise:
// error-constructor calls (fmt.Errorf, errors.New, errors.Join), panic
// arguments, and the branch of an error-nil check that handles the error.
func exemptRanges(pkg *Package, body *ast.BlockStmt) spans {
	info := pkg.Info
	var out spans
	ast.Inspect(body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			var path, name string
			switch f := ast.Unparen(x.Fun).(type) {
			case *ast.Ident:
				if b, ok := info.Uses[f].(*types.Builtin); ok && b.Name() == "panic" {
					out = append(out, span{x.Pos(), x.End()})
				}
				return true
			case *ast.SelectorExpr:
				fn, ok := info.Uses[f.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				path, name = fn.Pkg().Path(), fn.Name()
			default:
				return true
			}
			if (path == "fmt" && name == "Errorf") || (path == "errors" && (name == "New" || name == "Join")) {
				out = append(out, span{x.Pos(), x.End()})
			}
		case *ast.IfStmt:
			if branch := errorBranch(info, x); branch != nil {
				out = append(out, span{branch.Pos(), branch.End()})
			}
		}
		return true
	})
	return out
}

// errorBranch returns the branch of an if statement that handles a
// non-nil error (the body of `if err != nil`, the else of `if err == nil`),
// or nil when the condition is not an error-nil test.
func errorBranch(info *types.Info, ifs *ast.IfStmt) ast.Stmt {
	var op token.Token
	found := false
	ast.Inspect(ifs.Cond, func(node ast.Node) bool {
		be, ok := node.(*ast.BinaryExpr)
		if !ok || (be.Op != token.NEQ && be.Op != token.EQL) || found {
			return true
		}
		x, y := ast.Unparen(be.X), ast.Unparen(be.Y)
		if isNilErrTest(info, x, y) || isNilErrTest(info, y, x) {
			op, found = be.Op, true
		}
		return true
	})
	if !found {
		return nil
	}
	if op == token.NEQ {
		return ifs.Body
	}
	return ifs.Else // may be nil: `if err == nil { ... }` has no cold branch
}

var errType = types.Universe.Lookup("error").Type()

func isNilErrTest(info *types.Info, errSide, nilSide ast.Expr) bool {
	if id, ok := nilSide.(*ast.Ident); !ok || id.Name != "nil" {
		return false
	}
	t := info.TypeOf(errSide)
	return t != nil && types.Identical(t, errType)
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

func typeOfString(info *types.Info, e ast.Expr) string {
	if t := info.TypeOf(e); t != nil {
		return typeString(t)
	}
	return fmt.Sprintf("%T", e)
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// atomiccheck enforces all-or-nothing atomicity per field: once any site
// touches a field through sync/atomic — a legacy atomic.AddUint64(&f, 1)
// call or a method on an atomic.Uint64-style typed field — every other
// access to that field must either go through sync/atomic too, or hold a
// lock that dominates all the atomic sites (a lock held at every one of
// them, so the plain access cannot interleave). A plain read mixed with
// atomic writes is the classic torn-counter bug: it compiles, works on
// amd64, and corrupts the I/O and hit-rate counters exactly when enough
// readers run for the numbers to matter.
//
// The obs package's typed-atomic counters are the model citizens: the
// fields are atomic.Uint64/Int64, so the type system already forbids
// plain loads, and every use goes through Load/Add/CompareAndSwap.
// Copying such a field (`x := c.n`) is reported as a plain access.
func checkAtomic(m *Module) []Finding {
	// Pass 1: find every atomic site, keyed by the field/variable object,
	// with the locks held there. The guard that excuses a plain access
	// must be held at every atomic site of the field: meet the held sets
	// per field.
	sites := make(map[*types.Var][]token.Pos)
	common := make(map[*types.Var]lockSet)
	claimed := make(map[token.Pos]bool)
	for _, n := range m.Graph.Nodes() {
		var held *heldIndex
		for _, c := range n.Calls {
			if c.Expr == nil || (c.sync != atomicFunc && c.sync != atomicMethod) {
				continue
			}
			if held == nil {
				held = &walkLocks(n).held
			}
			for _, target := range atomicTargets(c) {
				v, id := atomicTargetVar(n.Pkg.Info, target)
				if v == nil {
					continue
				}
				claimed[id.Pos()] = true
				at := held.at(c.Pos)
				if prev, ok := common[v]; ok {
					at = prev.meet(at)
				}
				sites[v], common[v] = append(sites[v], c.Pos), at
			}
		}
	}
	if len(sites) == 0 {
		return nil
	}
	// Pass 2: every other use of a tracked field is a plain access.
	var out []Finding
	for _, n := range m.Graph.Nodes() {
		if n.Decl.Body == nil {
			continue
		}
		var held *heldIndex
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok || claimed[id.Pos()] {
				return true
			}
			v, ok := n.Pkg.Info.Uses[id].(*types.Var)
			if !ok || sites[v] == nil {
				return true
			}
			if held == nil {
				held = &walkLocks(n).held
			}
			if len(held.at(id.Pos()).meet(common[v])) > 0 {
				return true // a lock dominating all atomic sites guards this access
			}
			first := n.Pkg.Fset.Position(sites[v][0])
			out = append(out, Finding{
				Pos:      n.Pkg.Fset.Position(id.Pos()),
				Analyzer: "atomiccheck",
				Message: fmt.Sprintf("plain access to %s, which is accessed atomically at %d site(s) (first: %s:%d); no lock dominates all atomic sites",
					atomicVarDisplay(v), len(sites[v]), filepath.Base(first.Filename), first.Line),
			})
			return true
		})
	}
	return out
}

// atomicTargets returns the expressions naming what one atomic call site
// accesses: the &operands of a legacy atomic.AddUint64(&x.f, 1), the
// receiver of a typed x.f.Add(1).
func atomicTargets(c *Call) []ast.Expr {
	var out []ast.Expr
	if c.sync == atomicMethod {
		if sel, ok := ast.Unparen(c.Expr.Fun).(*ast.SelectorExpr); ok {
			out = append(out, sel.X)
		}
		return out
	}
	for _, arg := range c.Expr.Args {
		if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
			out = append(out, un.X)
		}
	}
	return out
}

// atomicTargetVar resolves the variable an atomic operation targets: the
// field of a selector chain (x.f -> f) or a bare identifier, along with
// the identifier naming it.
func atomicTargetVar(info *types.Info, expr ast.Expr) (*types.Var, *ast.Ident) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if v, ok := info.Uses[x.Sel].(*types.Var); ok {
			return v, x.Sel
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v, x
		}
	}
	return nil, nil
}

// atomicVarDisplay renders the accessed variable for diagnostics.
func atomicVarDisplay(v *types.Var) string {
	if v.IsField() {
		return "field " + v.Name()
	}
	return "variable " + v.Name()
}

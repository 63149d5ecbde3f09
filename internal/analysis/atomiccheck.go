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
	// Pass 1: find every atomic site, keyed by the field/variable object.
	sites := make(map[*types.Var][]atomicSite)
	claimed := make(map[token.Pos]bool)
	for _, n := range m.Graph.Nodes() {
		if n.Decl.Body == nil {
			continue
		}
		collectAtomicSites(n, sites, claimed)
	}
	if len(sites) == 0 {
		return nil
	}
	// The guard that excuses a plain access must be held at every atomic
	// site of the field: intersect the held sets per field.
	common := make(map[*types.Var]map[string]bool)
	for v, ss := range sites {
		inter := ss[0].held
		for _, s := range ss[1:] {
			next := make(map[string]bool)
			for k := range inter {
				if s.held[k] {
					next[k] = true
				}
			}
			inter = next
		}
		common[v] = inter
	}
	// Pass 2: every other use of a tracked field is a plain access.
	var out []Finding
	for _, n := range m.Graph.Nodes() {
		if n.Decl.Body == nil {
			continue
		}
		events := lockEvents(n.Pkg.Info, n.Decl.Body)
		ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
			id, ok := node.(*ast.Ident)
			if !ok || claimed[id.Pos()] {
				return true
			}
			v, ok := n.Pkg.Info.Uses[id].(*types.Var)
			if !ok {
				return true
			}
			ss, tracked := sites[v]
			if !tracked {
				return true
			}
			if intersects(heldAt(events, id.Pos()), common[v]) {
				return true // a lock dominating all atomic sites guards this access
			}
			first := n.Pkg.Fset.Position(ss[0].pos)
			out = append(out, Finding{
				Pos:      n.Pkg.Fset.Position(id.Pos()),
				Analyzer: "atomiccheck",
				Message: fmt.Sprintf("plain access to %s, which is accessed atomically at %d site(s) (first: %s:%d); no lock dominates all atomic sites",
					atomicVarDisplay(v), len(ss), filepath.Base(first.Filename), first.Line),
			})
			return true
		})
	}
	return out
}

// atomicSite is one sync/atomic access to a field, with the lock set
// lexically held there.
type atomicSite struct {
	pos  token.Pos
	held map[string]bool
}

// collectAtomicSites records the atomic accesses in one function body:
// legacy atomic.Op(&x.f, ...) calls and method calls on typed atomic
// fields (x.f.Add where f is an atomic.* named type). The identifier of
// the accessed field is claimed so pass 2 does not re-count it.
func collectAtomicSites(n *FuncNode, sites map[*types.Var][]atomicSite, claimed map[token.Pos]bool) {
	info := n.Pkg.Info
	events := lockEvents(info, n.Decl.Body)
	record := func(v *types.Var, id *ast.Ident, pos token.Pos) {
		claimed[id.Pos()] = true
		sites[v] = append(sites[v], atomicSite{pos: pos, held: heldAt(events, pos)})
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		if atomicPkgCall(info, call) {
			// atomic.AddUint64(&x.f, 1): the &target is the accessed value.
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if v, id := atomicTargetVar(info, un.X); v != nil {
					record(v, id, call.Pos())
				}
			}
			return true
		}
		// x.f.Add(1) on an atomic.Uint64-style typed field.
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := info.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return true
		}
		fn, _ := selection.Obj().(*types.Func)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		if v, id := atomicTargetVar(info, sel.X); v != nil {
			record(v, id, call.Pos())
		}
		return true
	})
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

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// sharecheck finds shared-state escapes into goroutines: variables
// captured by a `go`-closure body (or by a function literal handed to a
// callee that transitively spawns goroutines — the spawnsGoroutine fact)
// that are mutated on one side of the spawn and touched on the other
// without synchronization. It is the static pre-screen for the module's
// fan-outs — the simulator's replica workers, the experiment engine's
// worker pool, the metrics listener: the race detector only checks
// executed interleavings, and only under -race; sharecheck checks the
// source on every lint run.
//
// For every spawn region the analyzer computes the capture set and
// classifies each access on each side (inside the region, outside after
// the spawn, and sibling instances when the spawn sits in a loop or the
// literal is handed to a spawning callee). A pair of accesses is reported
// when at least one side writes — or both sides call a method with a
// pointer receiver — and none of the recognized guards applies:
//
//   - a common mutex held on both sides (the path walker's must-held
//     set on entry to the access's statement);
//   - a guarding fact on the called method (acquiresLock or usesAtomic),
//     so obs counters and registry methods pass;
//   - the disjoint-index write pattern `arr[i] = ...` where every index
//     variable is local to the region (PR 4's one-slot-per-replica idiom:
//     sibling instances write provably different elements) — never
//     accepted for maps, whose runtime forbids concurrent writes however
//     disjoint the keys;
//   - a completion barrier between spawn and access: outside accesses
//     after a sync.WaitGroup.Wait call or a channel receive that follows
//     the spawn are ordered, which is how every fan-out in this
//     repository reads its result slots; a literal handed to a spawning
//     callee is assumed joined when that call returns (the forEachPoint
//     idiom — a helper that retained the closure past its return would
//     escape this model);
//   - values that are synchronization primitives themselves (channels,
//     sync.*, sync/atomic.* — see syncPrimitive).
//
// The spawn and barrier order is lexical and per-function, so the model
// has known gaps, chosen to keep the module clean of false positives
// rather than complete: spawns via `go f(x)` with a named callee hand x
// off at spawn time and f's internal mutations are not tracked; a loop
// that mutates a variable before spawning a goroutine that reads it
// races its own next iteration unseen; and sibling instances calling the
// same unguarded pointer method are not reported (method bodies may be
// internally read-only, as the stdlib importer's level workers are).
func checkShare(m *Module) []Finding {
	var out []Finding
	for _, n := range m.Graph.Nodes() {
		if n.Decl.Body == nil {
			continue
		}
		out = append(out, shareCheckFunc(n)...)
	}
	return out
}

// goRegion is one block of code that executes on a spawned goroutine (or
// may, when the literal is handed to a spawning callee).
type goRegion struct {
	lit   *ast.FuncLit
	spawn token.Pos // the go statement / spawning call: accesses after this race
	end   token.Pos // end of the spawn statement; its own args evaluate before the spawn
	loop  bool      // instances of the region body may run concurrently with each other
	joins bool      // a spawning-callee region: the helper joins before returning,
	// so outside accesses after the call are ordered (forEachPoint idiom)
	desc string
}

// accessKind classifies one use of a captured variable.
type accessKind int

const (
	accRead accessKind = iota
	accWrite
	accPtrCall // call of a pointer-receiver method without a guarding fact
)

func (k accessKind) String() string {
	switch k {
	case accWrite:
		return "written"
	case accPtrCall:
		return "mutated via pointer method"
	default:
		return "read"
	}
}

// capAccess is one access to a captured variable on one side of a spawn.
type capAccess struct {
	pos      token.Pos
	kind     accessKind
	disjoint bool // index write with region-local index variables
	held     lockSet
}

// conflicts reports whether two accesses race: one side writes, or both
// call pointer methods, and no lock is held on both.
func conflicts(a, b capAccess) bool {
	return (a.kind == accWrite || b.kind == accWrite || a.kind == accPtrCall && b.kind == accPtrCall) &&
		len(a.held.meet(b.held)) == 0
}

func shareCheckFunc(n *FuncNode) []Finding {
	body := n.Decl.Body
	regions := collectRegions(n, body)
	if len(regions) == 0 {
		return nil
	}

	// Region bodies and spawn statements are excluded from the outside
	// side; barriers order outside accesses that follow them.
	var regionSpans spans
	for _, r := range regions {
		regionSpans = append(regionSpans, span{r.lit.Pos(), r.lit.End()}, span{r.spawn, r.end})
	}

	// The capture set: variables used inside any region but declared
	// outside it — in this function or at package level.
	captured := make(map[*types.Var]bool)
	for _, r := range regions {
		for v := range capturedVars(n, r) {
			captured[v] = true
		}
	}
	if len(captured) == 0 {
		return nil
	}

	held := &walkLocks(n).held
	outside := scanSide(n, held, body, nil, captured, regionSpans)
	barriers := collectBarriers(n, body, regionSpans)
	inside := make([]map[*types.Var][]capAccess, len(regions))
	for i, r := range regions {
		var others spans
		for j, o := range regions {
			if j != i {
				others = append(others, span{o.lit.Pos(), o.lit.End()})
			}
		}
		inside[i] = scanSide(n, held, r.lit.Body, r, captured, others)
	}

	var out []Finding
	report := func(a capAccess, format string, args ...any) {
		out = append(out, Finding{
			Pos:      n.Pkg.Fset.Position(a.pos),
			Analyzer: "sharecheck",
			Message:  fmt.Sprintf(format, args...),
		})
	}
	line := func(p token.Pos) int { return n.Pkg.Fset.Position(p).Line }

	for i, r := range regions {
	vars:
		for v, gAccs := range inside[i] {
			for _, a := range gAccs {
				// Goroutine vs the enclosing function after the spawn,
				// unless a barrier or the spawning helper's return (it
				// joins before returning) orders them.
				for _, b := range outside[v] {
					ordered := b.pos <= r.spawn || barrierBetween(barriers, r.spawn, b.pos) || (r.joins && b.pos >= r.end)
					if !ordered && conflicts(a, b) {
						report(a, "captured %s %s in goroutine (%s) and %s in %s at line %d after the spawn, with no common lock, barrier, or atomic guard",
							v.Name(), a.kind, r.desc, b.kind, n, line(b.pos))
						continue vars
					}
				}
				// Sibling instances of a looped / handed-off region body.
				if r.loop && a.kind == accWrite && !a.disjoint && len(a.held) == 0 {
					report(a, "captured %s %s concurrently by multiple instances of the goroutine body (%s, line %d) without a lock or a region-local disjoint index",
						v.Name(), a.kind, r.desc, line(r.spawn))
					continue vars
				}
				// Two distinct regions of the same function.
				for j, o := range regions {
					for _, b := range inside[j][v] {
						if j != i && conflicts(a, b) && !(a.disjoint && b.disjoint) {
							report(a, "captured %s %s by the goroutine spawned at line %d and %s by the goroutine spawned at line %d, with no common lock",
								v.Name(), a.kind, line(r.spawn), b.kind, line(o.spawn))
							continue vars
						}
					}
				}
			}
		}
	}
	return out
}

// collectRegions finds the function's spawn regions: go statements with a
// literal body, and function literals passed to callees that carry the
// spawnsGoroutine fact (which may retain and invoke them from any number
// of goroutines — treated as looped).
func collectRegions(n *FuncNode, body *ast.BlockStmt) []*goRegion {
	var out []*goRegion
	loopDepth := 0
	var walk func(node ast.Node) bool
	walk = func(node ast.Node) bool {
		switch x := node.(type) {
		case nil:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
			var b *ast.BlockStmt
			if f, ok := x.(*ast.ForStmt); ok {
				if f.Init != nil {
					ast.Inspect(f.Init, walk)
				}
				b = f.Body
			} else {
				b = x.(*ast.RangeStmt).Body
			}
			ast.Inspect(b, walk)
			loopDepth--
			return false
		case *ast.GoStmt:
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				out = append(out, &goRegion{
					lit: lit, spawn: x.Pos(), end: x.End(),
					loop: loopDepth > 0, desc: "go statement",
				})
			}
			return true
		case *ast.CallExpr:
			site := n.SiteAt(x)
			if site == nil || site.Facts()&FactSpawnsGoroutine == 0 {
				return true
			}
			for _, arg := range x.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					out = append(out, &goRegion{
						lit: lit, spawn: x.Pos(), end: x.End(), loop: true, joins: true,
						desc: "literal passed to spawning " + site.Desc,
					})
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}

// capturedVars returns the variables the region body uses but does not
// declare: locals of the enclosing function (or of enclosing literals)
// and package-level variables. Fields, region locals, and values that are
// synchronization primitives are excluded.
func capturedVars(n *FuncNode, r *goRegion) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	decl := n.Decl
	pkgScope := n.Pkg.Types.Scope()
	ast.Inspect(r.lit.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := n.Pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || syncPrimitive(v.Type()) {
			return true
		}
		if v.Pos() >= r.lit.Pos() && v.Pos() < r.lit.End() {
			return true // region parameter or local
		}
		inFunc := v.Pos() >= decl.Pos() && v.Pos() < decl.End()
		if inFunc || v.Parent() == pkgScope {
			out[v] = true
		}
		return true
	})
	return out
}

// scanSide collects the accesses to captured vars within root, skipping
// the excluded spans. region is non-nil when root is a region body (its
// locals make index writes disjoint); nil scans the outside.
func scanSide(n *FuncNode, held *heldIndex, root ast.Node, region *goRegion, captured map[*types.Var]bool, exclude spans) map[*types.Var][]capAccess {
	info := n.Pkg.Info
	accs := make(map[*types.Var][]capAccess)
	claimed := make(map[ast.Node]bool)
	add := func(v *types.Var, pos token.Pos, kind accessKind, disjoint bool) {
		accs[v] = append(accs[v], capAccess{pos: pos, kind: kind, disjoint: disjoint, held: held.at(pos)})
	}
	// lhsWrite records a write through an assignment target and claims its
	// base identifier so the generic pass does not double-count a read.
	lhsWrite := func(expr ast.Expr) {
		base, idx := baseAndIndex(expr)
		if base == nil {
			return
		}
		v, ok := info.Uses[base].(*types.Var)
		if !ok || !captured[v] {
			return
		}
		claimed[base] = true
		disjoint := false
		if idx != nil && region != nil {
			if _, isMap := info.TypeOf(idx.X).Underlying().(*types.Map); !isMap {
				disjoint = regionLocalIndex(info, idx.Index, region)
			}
		}
		add(v, expr.Pos(), accWrite, disjoint)
	}
	ast.Inspect(root, func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if exclude.covers(node.Pos()) && node != root {
			return false
		}
		switch x := node.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				lhsWrite(lhs)
			}
		case *ast.IncDecStmt:
			lhsWrite(x.X)
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return true
			}
			base, _ := baseAndIndex(x.X)
			if base == nil {
				return true
			}
			if v, ok := info.Uses[base].(*types.Var); ok && captured[v] && !claimed[base] {
				claimed[base] = true
				add(v, x.Pos(), accWrite, false)
			}
		case *ast.CallExpr:
			site := n.SiteAt(x)
			if site == nil {
				return true
			}
			// sync/atomic package calls are the guard, not the race: claim
			// the &field arguments they operate on.
			if site.sync == atomicFunc {
				for _, arg := range x.Args {
					ast.Inspect(arg, func(sub ast.Node) bool {
						if id, ok := sub.(*ast.Ident); ok {
							claimed[id] = true
						}
						return true
					})
				}
				return true
			}
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.MethodVal {
				return true
			}
			base, _ := baseAndIndex(sel.X)
			v, ok := info.Uses[base].(*types.Var)
			_, ptrRecv := site.Callee.Type().(*types.Signature).Recv().Type().(*types.Pointer)
			if !ok || !captured[v] || !ptrRecv || site.Facts()&(FactAcquiresLock|FactUsesAtomic) != 0 {
				return true // a value receiver operates on a copy; a locking or atomic method guards itself
			}
			claimed[base] = true
			add(v, x.Pos(), accPtrCall, false)
		case *ast.Ident:
			if claimed[x] {
				return true
			}
			if v, ok := info.Uses[x].(*types.Var); ok && captured[v] {
				add(v, x.Pos(), accRead, false)
			}
		}
		return true
	})
	return accs
}

// baseAndIndex peels selectors and indexes off an lvalue-ish expression,
// returning the base identifier and the outermost index expression (nil
// when the path has none): `v` -> (v, nil); `v[i]` -> (v, v[i]);
// `v.f[i].g` -> (v, v.f[i]).
func baseAndIndex(expr ast.Expr) (*ast.Ident, *ast.IndexExpr) {
	var idx *ast.IndexExpr
	for {
		switch x := ast.Unparen(expr).(type) {
		case *ast.Ident:
			return x, idx
		case *ast.IndexExpr:
			idx = x
			expr = x.X
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		default:
			return nil, nil
		}
	}
}

// regionLocalIndex reports whether every variable in an index expression
// is declared inside the region, so sibling instances index disjoint
// elements (each instance receives its own value via parameter or local).
func regionLocalIndex(info *types.Info, index ast.Expr, r *goRegion) bool {
	localVars, total := 0, 0
	ast.Inspect(index, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok {
			return true
		}
		if v, ok := info.Uses[id].(*types.Var); ok {
			total++
			if v.Pos() >= r.lit.Pos() && v.Pos() < r.lit.End() {
				localVars++
			}
		}
		return true
	})
	return total > 0 && localVars == total
}

// collectBarriers finds the completion barriers of the enclosing body:
// sync.WaitGroup.Wait calls and channel receives outside any region. An
// outside access after such a barrier (itself after the spawn) is ordered
// with the goroutine's writes.
func collectBarriers(n *FuncNode, body *ast.BlockStmt, exclude spans) []token.Pos {
	info := n.Pkg.Info
	var out []token.Pos
	ast.Inspect(body, func(node ast.Node) bool {
		if node == nil {
			return false
		}
		if exclude.covers(node.Pos()) {
			return false
		}
		switch x := node.(type) {
		case *ast.CallExpr:
			if site := n.SiteAt(x); site != nil && site.sync == waitGroupWait {
				out = append(out, x.Pos())
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				out = append(out, x.Pos())
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					out = append(out, x.Pos())
				}
			}
		}
		return true
	})
	return out
}

// barrierBetween reports whether a barrier lies strictly between the two
// positions.
func barrierBetween(barriers []token.Pos, spawn, access token.Pos) bool {
	for _, b := range barriers {
		if b > spawn && b < access {
			return true
		}
	}
	return false
}

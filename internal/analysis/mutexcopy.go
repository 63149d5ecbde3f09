package analysis

import (
	"go/ast"
	"go/types"
)

// checkMutexCopy flags by-value copies of types that contain sync
// primitives — a copied sync.Mutex guards nothing, so a value receiver or
// value parameter on (say) buffer.ShardedPool would silently fork the lock
// from the state it protects. Sites checked:
//
//   - value (non-pointer) method receivers on lock-holding types;
//   - value parameters and results in function signatures;
//   - assignments that copy an existing lock-holding value (composite
//     literals and &-expressions construct rather than copy, so they pass);
//   - call arguments passing a lock-holding value;
//   - range clauses whose value variable copies a lock-holding element.
//
// go vet's copylocks overlaps with this, but CI runs both: this analyzer
// also refuses value *results* and stays under project control when new
// sync-holding types appear.
func checkMutexCopy(pkg *Package) []Finding {
	var out []Finding
	report := func(pos ast.Node, what string, t types.Type) {
		out = append(out, Finding{
			Pos:      pkg.Fset.Position(pos.Pos()),
			Analyzer: "mutexcopy",
			Message:  what + " copies " + t.String() + ", which contains sync primitives; use a pointer",
		})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Recv != nil {
					for _, field := range n.Recv.List {
						if t := fieldValueType(pkg, field.Type); t != nil && holdsLock(t, nil) {
							report(field.Type, "value receiver", t)
						}
					}
				}
				checkSignature(pkg, n.Type, report)
			case *ast.FuncLit:
				checkSignature(pkg, n.Type, report)
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, rhs := range n.Rhs {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
						continue // discarding to blank copies nothing anyone can use
					}
					if t, copied := copiesLockValue(pkg, rhs); copied {
						report(rhs, "assignment", t)
					}
				}
			case *ast.CallExpr:
				if tv, ok := pkg.Info.Types[n.Fun]; ok && tv.IsType() {
					return true // conversion
				}
				for _, arg := range n.Args {
					if t, copied := copiesLockValue(pkg, arg); copied {
						report(arg, "call argument", t)
					}
				}
			case *ast.RangeStmt:
				if n.Value != nil {
					// With := the value ident is a definition, recorded in
					// Defs rather than the expression type map.
					t := exprType(pkg, n.Value)
					if t == nil {
						if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok {
							if obj := pkg.Info.Defs[id]; obj != nil {
								t = obj.Type()
							}
						}
					}
					if t != nil && holdsLock(t, nil) {
						report(n.Value, "range value", t)
					}
				}
			}
			return true
		})
	}
	return out
}

// checkSignature flags value parameters and results holding locks.
func checkSignature(pkg *Package, ft *ast.FuncType, report func(ast.Node, string, types.Type)) {
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			if t := fieldValueType(pkg, field.Type); t != nil && holdsLock(t, nil) {
				report(field.Type, "value parameter", t)
			}
		}
	}
	if ft.Results != nil {
		for _, field := range ft.Results.List {
			if t := fieldValueType(pkg, field.Type); t != nil && holdsLock(t, nil) {
				report(field.Type, "value result", t)
			}
		}
	}
}

// fieldValueType returns the type of a signature field unless it is
// declared as a pointer (or variadic slice), which copies nothing.
func fieldValueType(pkg *Package, expr ast.Expr) types.Type {
	switch expr.(type) {
	case *ast.StarExpr, *ast.Ellipsis:
		return nil
	}
	t := exprType(pkg, expr)
	if t == nil {
		return nil
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return nil
	}
	return t
}

// copiesLockValue reports whether evaluating expr produces a copy of an
// existing lock-holding value. Composite literals, &-expressions, and
// conversions construct fresh values; reading a variable, field, index, or
// dereference copies.
func copiesLockValue(pkg *Package, expr ast.Expr) (types.Type, bool) {
	t := exprType(pkg, expr)
	if t == nil || !holdsLock(t, nil) {
		return nil, false
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.CompositeLit:
		return nil, false
	case *ast.UnaryExpr:
		return nil, false // &T{...} yields a pointer; its type would not hold a lock anyway
	case *ast.CallExpr:
		// A call returning a lock-holding value is flagged at its own
		// signature (value result); don't double-report the call site.
		return nil, false
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		_ = e
		return t, true
	default:
		return t, true
	}
}

func exprType(pkg *Package, expr ast.Expr) types.Type {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return nil
	}
	return tv.Type
}

// holdsLock reports whether t is a sync package type or transitively
// contains one in a struct field or array element. Pointers, slices, maps,
// and channels break the chain: copying a pointer to a mutex is fine.
func holdsLock(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if obj := named.Obj(); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if holdsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return holdsLock(u.Elem(), seen)
	}
	return false
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkProbRange flags probability-valued functions that can return values
// outside [0,1]: the buffer model consumes access probabilities A_ij and
// quietly produces garbage (negative warm-up lengths, hit ratios above 1)
// if one escapes the unit interval. The paper's corrected uniform model
// (Section 3.1) exists precisely because the uncorrected Kamel–Faloutsos
// probabilities exceed 1 near the data-space boundary.
//
// A function is probability-valued when it returns a single float64 and is
// named AccessProb, or ends in Prob, Probability, or Ratio. Each of its
// return statements must be "guarded": a clamp call (math.Min, math.Max,
// or any function whose name contains "clamp"), a constant, or a call it
// delegates to. Returning raw arithmetic — directly or via a local
// variable whose only assignments are raw arithmetic — is flagged.
func checkProbRange(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !isProbFunc(pkg, fn) {
				continue
			}
			assigns := localAssignments(pkg.Info, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false // nested closures are not the prob function's returns
				}
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || len(ret.Results) != 1 {
					return true
				}
				expr := ast.Unparen(ret.Results[0])
				if bad, site := unclampedArith(pkg, expr, assigns, 0); bad {
					out = append(out, Finding{
						Pos:      pkg.Fset.Position(site.Pos()),
						Analyzer: "probrange",
						Message: "probability-valued " + fn.Name.Name +
							" returns unclamped arithmetic that can leave [0,1]; wrap in math.Min/math.Max/clamp01 or annotate with //lint:allow probrange",
					})
				}
				return true
			})
		}
	}
	return out
}

// isProbFunc reports whether fn is a probability-valued function by name
// and signature (single float64 result).
func isProbFunc(pkg *Package, fn *ast.FuncDecl) bool {
	name := fn.Name.Name
	if name != "AccessProb" &&
		!strings.HasSuffix(name, "Prob") &&
		!strings.HasSuffix(name, "Probability") &&
		!strings.HasSuffix(name, "Ratio") {
		return false
	}
	results := fn.Type.Results
	if results == nil || len(results.List) != 1 || len(results.List[0].Names) > 1 {
		return false
	}
	t := pkg.Info.TypeOf(results.List[0].Type)
	basic, ok := t.(*types.Basic)
	return ok && basic.Kind() == types.Float64
}

// localAssignments maps each variable object to the expressions assigned
// to it in the function body, in source order: `x := e`, `x = e`,
// `var x = e`, and each target of a tuple assignment from one call
// (`v, err := f()` records f() for both). An arithmetic assignment
// `p += w` (or -=, *=, /=) is recorded as raw arithmetic on p.
func localAssignments(info *types.Info, body *ast.BlockStmt) map[types.Object][]ast.Expr {
	out := make(map[types.Object][]ast.Expr)
	record := func(lhs, rhs []ast.Expr, tok token.Token, at token.Pos) {
		for i, l := range lhs {
			id, ok := ast.Unparen(l).(*ast.Ident)
			if !ok || len(rhs) == 0 {
				continue
			}
			r := rhs[min(i, len(rhs)-1)]
			switch tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				r = &ast.BinaryExpr{X: l, OpPos: at, Op: token.ADD, Y: r}
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj != nil {
				out[obj] = append(out[obj], r)
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			record(x.Lhs, x.Rhs, x.Tok, x.TokPos)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(x.Names))
			for i, id := range x.Names {
				lhs[i] = id
			}
			record(lhs, x.Values, token.DEFINE, x.Pos())
		}
		return true
	})
	return out
}

// unclampedArith decides whether expr is raw arithmetic with no clamp on
// the way out, resolving one level of local-variable indirection. It
// returns the offending expression for the diagnostic position.
func unclampedArith(pkg *Package, expr ast.Expr, assigns map[types.Object][]ast.Expr, depth int) (bool, ast.Expr) {
	if depth > 4 {
		return false, nil
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			return true, e
		}
		return false, nil
	case *ast.CallExpr:
		return false, nil // clamp or delegation — trusted either way
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			return false, nil
		}
		for _, rhs := range assigns[obj] {
			if isClampCall(rhs) {
				return false, nil // at least one assignment clamps; trust the flow
			}
		}
		for _, rhs := range assigns[obj] {
			if bad, _ := unclampedArith(pkg, rhs, assigns, depth+1); bad {
				return true, e
			}
		}
		return false, nil
	default:
		return false, nil
	}
}

// isClampCall reports whether expr is a call to a recognized clamping
// function: math.Min, math.Max, or anything whose name contains "clamp".
func isClampCall(expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "clamp")
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if strings.Contains(strings.ToLower(name), "clamp") {
			return true
		}
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok && x.Name == "math" {
			return name == "Min" || name == "Max"
		}
	}
	return false
}

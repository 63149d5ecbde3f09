package analysis

import (
	"go/ast"
	"go/types"
)

// checkErrCheck flags call statements that silently discard an error
// result: a call used as a bare expression statement whose type is (or
// contains) error. A dropped error in the storage or data-generation path
// turns a truncated page file into a silently wrong experiment.
//
// Explicitly discarding with `_ = f.Close()` is allowed — the point is
// that ignoring an error must be visible in the source. Deferred calls
// (`defer f.Close()` on read-only files) are likewise excluded: Go offers
// no non-contorted way to check them, and the repo's write paths already
// check Close explicitly.
//
// A small conventional exclusion list keeps the signal high, mirroring
// errcheck's defaults: fmt printers writing to the terminal (a failed
// progress line is not actionable), the Write methods of
// strings.Builder, bytes.Buffer, and hash.Hash, which are documented to
// never return an error, and fmt.Fprint* into a writer whose static type
// is one of those.
func checkErrCheck(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok || !returnsError(pkg, call) || excludedCall(pkg, call) {
				return true
			}
			out = append(out, Finding{
				Pos:      pkg.Fset.Position(call.Pos()),
				Analyzer: "errcheck",
				Message:  "result of " + callName(call) + " contains an error that is silently discarded; handle it or assign to _",
			})
			return true
		})
	}
	return out
}

// returnsError reports whether call yields an error (alone or within a
// tuple). Type conversions never do.
func returnsError(pkg *Package, call *ast.CallExpr) bool {
	if tv, ok := pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion, not a call
	}
	tv, ok := pkg.Info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	if tuple, ok := tv.Type.(*types.Tuple); ok {
		for i := 0; i < tuple.Len(); i++ {
			if isErrorType(tuple.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(tv.Type)
}

var errorType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, errorType)
}

// excludedCall reports whether the call is on the conventional exclusion
// list (see checkErrCheck's doc comment).
func excludedCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// Methods of never-failing writers: strings.Builder, bytes.Buffer,
	// and the hash interfaces/implementations.
	if s, ok := pkg.Info.Selections[sel]; ok {
		if neverFailingRecv(s.Recv()) {
			return true
		}
		return false
	}
	// Package-level functions: fmt printers.
	obj, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != "fmt" {
		return false
	}
	switch obj.Name() {
	case "Print", "Printf", "Println":
		return true
	case "Fprint", "Fprintf", "Fprintln":
		// Only when writing to the process's own terminal streams, or
		// into a writer whose static type cannot fail.
		if len(call.Args) == 0 {
			return false
		}
		if t := pkg.Info.TypeOf(call.Args[0]); t != nil && neverFailingRecv(t) {
			return true
		}
		if w, ok := ast.Unparen(call.Args[0]).(*ast.SelectorExpr); ok {
			if x, ok := ast.Unparen(w.X).(*ast.Ident); ok && x.Name == "os" {
				return w.Sel.Name == "Stdout" || w.Sel.Name == "Stderr"
			}
		}
	}
	return false
}

// neverFailingRecv reports whether t is a receiver whose error-returning
// methods are documented to never fail.
func neverFailingRecv(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "strings":
		return obj.Name() == "Builder"
	case "bytes":
		return obj.Name() == "Buffer"
	case "hash":
		return true // hash.Hash, Hash32, Hash64: Write never returns an error
	}
	return false
}

// callName renders a readable name for the called function.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			return x.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}

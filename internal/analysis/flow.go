package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the one statement-path walker of the package. It carries
// a client's state lattice through a function body in source order:
// forking at if/switch/select, running loop bodies zero, one and two
// times (two is the cheapest shape that exposes cross-iteration order),
// taking break and continue paths to the loop exit and the next
// iteration, and running deferred calls last-in-first-out at every
// return. The lattice that rides on it is sharecheck's must-held lock
// sets, joined by intersection (sync.go).
//
// The walk is possibilistic where Go is dynamic: both sides of && and ||
// evaluate, a goto continues with the next statement, and deferred calls
// registered on any path run at every later return.

// pathFlow is one lattice: its state type S, how paths join, and how the
// nodes a path meets transform it.
type pathFlow[S any] interface {
	join(a, b S) S
	// step applies one node after its operands: a call (or a deferred
	// call, at a return), a function literal, a go statement, and a
	// return statement once its results are evaluated and before its
	// defers run.
	step(st S, n ast.Node) S
	// enter sees the state on entry to every walked statement.
	enter(st S, s ast.Stmt)
	// exit sees a path leave the body after its defers ran, at a return
	// statement or (ret nil) at the closing brace.
	exit(st S, ret *ast.ReturnStmt, at token.Pos)
}

type walker[S any] struct {
	f      pathFlow[S]
	defers []*ast.CallExpr
	jumps  []*jumpTarget[S]
}

// jumpTarget collects the paths a break or continue sends to an enclosing
// loop, switch or select.
type jumpTarget[S any] struct {
	label            string
	loop             bool
	breaks, nextIter []S
}

// walkPaths walks one body — a function's or a function literal's, which
// is always walked as a body of its own — from the entry state.
func walkPaths[S any](f pathFlow[S], body *ast.BlockStmt, entry S) {
	w := &walker[S]{f: f}
	if st, live := w.stmt(body, entry); live {
		w.ret(nil, body.Rbrace, st)
	}
}

// stmt walks one statement; live is false when no path falls out of it.
func (w *walker[S]) stmt(s ast.Stmt, st S) (S, bool) {
	label := ""
	if l, ok := s.(*ast.LabeledStmt); ok {
		label, s = l.Label.Name, l.Stmt
	}
	w.f.enter(st, s)
	switch x := s.(type) {
	case *ast.BlockStmt:
		return w.list(x.List, st)
	case *ast.ExprStmt:
		st = w.expr(x.X, st)
	case *ast.AssignStmt:
		st = w.exprs(x.Lhs, w.exprs(x.Rhs, st))
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					st = w.exprs(vs.Values, st)
				}
			}
		}
	case *ast.IncDecStmt:
		st = w.expr(x.X, st)
	case *ast.SendStmt:
		st = w.expr(x.Value, w.expr(x.Chan, st))
	case *ast.GoStmt:
		st = w.f.step(w.operands(x.Call, st), x)
	case *ast.DeferStmt:
		st = w.operands(x.Call, st)
		w.defers = append(w.defers, x.Call)
	case *ast.ReturnStmt:
		w.ret(x, x.Pos(), w.f.step(w.exprs(x.Results, st), x))
		return st, false
	case *ast.BranchStmt:
		return st, !w.jump(x, st)
	case *ast.IfStmt:
		st = w.expr(x.Cond, w.init(x.Init, st))
		outs := w.fork(nil, x.Body, st)
		if x.Else == nil {
			return w.join(append(outs, st))
		}
		return w.join(w.fork(outs, x.Else, st))
	case *ast.ForStmt:
		return w.loop(label, w.expr(x.Cond, w.init(x.Init, st)), x.Body, x.Post)
	case *ast.RangeStmt:
		return w.loop(label, w.expr(x.X, st), x.Body, nil)
	case *ast.SwitchStmt:
		return w.clauses(label, x.Body, w.expr(x.Tag, w.init(x.Init, st)), false)
	case *ast.TypeSwitchStmt:
		return w.clauses(label, x.Body, w.init(x.Assign, w.init(x.Init, st)), false)
	case *ast.SelectStmt:
		return w.clauses(label, x.Body, st, true)
	}
	return st, true
}

// list walks a statement sequence until no path falls through.
func (w *walker[S]) list(list []ast.Stmt, st S) (S, bool) {
	for _, s := range list {
		var live bool
		if st, live = w.stmt(s, st); !live {
			return st, false
		}
	}
	return st, true
}

// init walks an optional header statement that cannot leave the body.
func (w *walker[S]) init(s ast.Stmt, st S) S {
	if s != nil {
		st, _ = w.stmt(s, st)
	}
	return st
}

// loop walks the body zero, one and two times; the post statement runs
// after each completed iteration.
func (w *walker[S]) loop(label string, st S, body *ast.BlockStmt, post ast.Stmt) (S, bool) {
	t := &jumpTarget[S]{label: label, loop: true}
	w.jumps = append(w.jumps, t)
	exits := []S{st}
	for i := 0; i < 2; i++ {
		if t.nextIter = w.fork(t.nextIter, body, st); len(t.nextIter) == 0 {
			break
		}
		st, _ = w.join(t.nextIter)
		st, t.nextIter = w.init(post, st), nil
		exits = append(exits, st)
	}
	w.jumps = w.jumps[:len(w.jumps)-1]
	return w.join(append(exits, t.breaks...))
}

// clauses forks over a switch's or select's clause bodies. A switch
// without a default clause also keeps the path that takes no case; a
// select always takes one.
func (w *walker[S]) clauses(label string, body *ast.BlockStmt, st S, isSelect bool) (S, bool) {
	t := &jumpTarget[S]{label: label}
	w.jumps = append(w.jumps, t)
	var outs []S
	hasDefault := isSelect
	for _, cl := range body.List {
		cst := st
		var list []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			st = w.exprs(c.List, st)
			cst, list, hasDefault = st, c.Body, hasDefault || c.List == nil
		case *ast.CommClause:
			cst, list = w.init(c.Comm, st), c.Body
		}
		if end, live := w.list(list, cst); live {
			outs = append(outs, end)
		}
	}
	w.jumps = w.jumps[:len(w.jumps)-1]
	if !hasDefault {
		outs = append(outs, st)
	}
	return w.join(append(outs, t.breaks...))
}

// jump sends a break or continue path to its target and reports whether
// it went anywhere; goto and fallthrough continue in place.
func (w *walker[S]) jump(x *ast.BranchStmt, st S) bool {
	for i := len(w.jumps) - 1; i >= 0; i-- {
		t := w.jumps[i]
		if x.Label != nil && x.Label.Name != t.label {
			continue
		}
		switch {
		case x.Tok == token.BREAK:
			t.breaks = append(t.breaks, st)
			return true
		case x.Tok == token.CONTINUE && t.loop:
			t.nextIter = append(t.nextIter, st)
			return true
		}
	}
	return false
}

// ret runs the deferred calls last-in-first-out and lets the path exit.
func (w *walker[S]) ret(x *ast.ReturnStmt, at token.Pos, st S) {
	for i := len(w.defers) - 1; i >= 0; i-- {
		st = w.f.step(st, w.defers[i])
	}
	w.f.exit(st, x, at)
}

// fork walks one branch from st and adds its end state to outs when a
// path falls out of it.
func (w *walker[S]) fork(outs []S, s ast.Stmt, st S) []S {
	if end, live := w.stmt(s, st); live {
		outs = append(outs, end)
	}
	return outs
}

// join joins the states of paths meeting at one point; it reports false
// when there are none.
func (w *walker[S]) join(sts []S) (S, bool) {
	if len(sts) == 0 {
		var none S
		return none, false
	}
	out := sts[0]
	for _, st := range sts[1:] {
		out = w.f.join(out, st)
	}
	return out, true
}

// operands applies a call's function expression and arguments.
func (w *walker[S]) operands(call *ast.CallExpr, st S) S {
	return w.exprs(call.Args, w.expr(call.Fun, st))
}

func (w *walker[S]) exprs(list []ast.Expr, st S) S {
	for _, e := range list {
		st = w.expr(e, st)
	}
	return st
}

// expr applies an expression's nodes in evaluation order: operands before
// the call that consumes them.
func (w *walker[S]) expr(e ast.Expr, st S) S {
	switch x := e.(type) {
	case *ast.CallExpr:
		return w.f.step(w.operands(x, st), x)
	case *ast.FuncLit:
		return w.f.step(st, x)
	case *ast.UnaryExpr:
		return w.expr(x.X, st)
	case *ast.ParenExpr:
		return w.expr(x.X, st)
	case *ast.SelectorExpr:
		return w.expr(x.X, st)
	case *ast.StarExpr:
		return w.expr(x.X, st)
	case *ast.BinaryExpr:
		return w.expr(x.Y, w.expr(x.X, st))
	case *ast.IndexExpr:
		return w.expr(x.Index, w.expr(x.X, st))
	case *ast.IndexListExpr:
		return w.expr(x.X, st)
	case *ast.SliceExpr:
		return w.expr(x.Max, w.expr(x.High, w.expr(x.Low, w.expr(x.X, st))))
	case *ast.TypeAssertExpr:
		return w.expr(x.X, st)
	case *ast.CompositeLit:
		return w.exprs(x.Elts, st)
	case *ast.KeyValueExpr:
		return w.expr(x.Value, st)
	}
	return st
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// lockcheck tracks sync.Mutex/RWMutex acquisition through each function
// body and reports the bugs the buffer and storage layers are prone to:
//
//   - a return path (or the function end) reached with a lock still held
//     after the deferred calls ran;
//   - a lock acquired again while it is held (self-deadlock), including
//     on a loop's next iteration;
//   - a lock held across a call whose transitive facts include doesIO or
//     mayBlock — the call-graph facts make this work across package
//     boundaries and interface dispatch (e.g. a DiskManager.ReadPage
//     behind two wrappers) — or across a channel operation or select.
//
// Direct sync.* Lock/Unlock calls are state transitions, not blocking
// callees, so ordered multi-mutex acquisition inside one function does
// not self-report. The lock state is the path walker's must-held
// lattice (flow.go): branches fork and meet by intersection, and a
// function literal is a body of its own, entered with no lock held.
func checkLock(m *Module) []Finding {
	var out []Finding
	for _, n := range m.Graph.Nodes() {
		if n.Decl.Body != nil {
			out = append(out, walkLocks(n).findings...)
		}
	}
	return out
}

// lockFlow is the path walker's lock lattice: must-held lock sets, met by
// intersection. It records each statement's entry set (sharecheck's and
// atomiccheck's "which locks are held here") and lockcheck's findings.
type lockFlow struct {
	n        *FuncNode
	held     heldIndex
	findings []Finding
	reported map[string]bool
	walked   map[*ast.FuncLit]bool
}

// walkLocks runs the lock lattice over one function body and every
// function literal in it.
func walkLocks(n *FuncNode) *lockFlow {
	f := &lockFlow{
		n:        n,
		held:     heldIndex{index: make(map[ast.Stmt]int)},
		reported: make(map[string]bool),
		walked:   make(map[*ast.FuncLit]bool),
	}
	walkPaths[lockSet](f, n.Decl.Body, lockSet{})
	return f
}

func (f *lockFlow) join(a, b lockSet) lockSet { return a.meet(b) }

func (f *lockFlow) enter(held lockSet, s ast.Stmt) { f.held.record(s, held) }

func (f *lockFlow) step(held lockSet, node ast.Node) lockSet {
	switch x := node.(type) {
	case *ast.CallExpr:
		c := f.n.SiteAt(x)
		switch {
		case c == nil || c.sync == lockOther:
		case c.sync == lockAcquire:
			if _, dup := held[c.lock]; dup {
				f.report(x.Pos(), "%s locked again while already held (self-deadlock)", c.lock)
			}
			return held.with(c.lock, x.Pos())
		case c.sync == lockRelease:
			return held.with(c.lock, token.NoPos)
		default:
			if risky := c.Facts() & (FactDoesIO | FactMayBlock); risky != 0 {
				f.across(x.Pos(), held, fmt.Sprintf("call to %s (%s)", c.Desc, risky))
			}
		}
	case *ast.UnaryExpr: // the walker steps on receives only
		f.across(x.Pos(), held, "channel receive")
	case *ast.SendStmt:
		f.across(x.Pos(), held, "channel send")
	case *ast.SelectStmt:
		f.across(x.Pos(), held, "select statement")
	case *ast.FuncLit:
		if !f.walked[x] {
			f.walked[x] = true
			walkPaths[lockSet](f, x.Body, lockSet{})
		}
	}
	return held
}

// exit reports every lock still held when a path leaves the body.
func (f *lockFlow) exit(held lockSet, ret *ast.ReturnStmt, at token.Pos) {
	where := "function end"
	if ret != nil {
		where = "return"
	}
	for _, name := range held.names() {
		line := f.n.Pkg.Fset.Position(held[name]).Line
		f.report(at, "%s reached with %s still locked (acquired at line %d; no Unlock on this path)", where, name, line)
	}
}

// across reports the held locks spanning one risky operation.
func (f *lockFlow) across(pos token.Pos, held lockSet, what string) {
	if len(held) > 0 {
		f.report(pos, "%s held across %s", strings.Join(held.names(), ", "), what)
	}
}

// report records a finding once: the walk reaches a loop body's
// statements more than once.
func (f *lockFlow) report(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if key := fmt.Sprint(pos, msg); !f.reported[key] {
		f.reported[key] = true
		f.findings = append(f.findings, Finding{Pos: f.n.Pkg.Fset.Position(pos), Analyzer: "lockcheck", Message: msg})
	}
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file holds the synchronization model the concurrency analyzers
// (lockcheck, sharecheck, atomiccheck) share: the one classification of a
// call site's sync/atomic role, made when the call graph is built, and
// the must-held lock sets the path walker (flow.go) records per statement.

// syncKind is a call site's synchronization role.
type syncKind uint8

const (
	syncNone      syncKind = iota
	lockAcquire            // sync.Mutex/RWMutex Lock or RLock on a named lock
	lockRelease            // Unlock or RUnlock on a named lock
	lockOther              // TryLock/TryRLock, or a lock method not called on a value: not modelled as held
	atomicFunc             // a sync/atomic package function: its &operands are the accessed values
	atomicMethod           // a method of a sync/atomic typed value
	waitGroupWait          // sync.WaitGroup.Wait: a completion barrier
)

// syncKindOf classifies a non-module callee.
func syncKindOf(fn *types.Func) syncKind {
	if fn.Pkg() == nil {
		return syncNone
	}
	recv := recvBase(fn)
	switch fn.Pkg().Path() {
	case "sync/atomic":
		if recv == "" {
			return atomicFunc
		}
		return atomicMethod
	case "sync":
		if recv == "WaitGroup" && fn.Name() == "Wait" {
			return waitGroupWait
		}
		if recv != "Mutex" && recv != "RWMutex" {
			return syncNone
		}
		switch fn.Name() {
		case "Lock", "RLock":
			return lockAcquire
		case "Unlock", "RUnlock":
			return lockRelease
		case "TryLock", "TryRLock":
			return lockOther
		}
	}
	return syncNone
}

// lockName names the lock a classified acquire/release site operates on:
// the receiver expression, marked when the mode is read ("s.mu",
// "s.mu (read)"). It is "" — and the site is reclassified lockOther —
// when the method is not called on a value.
func lockName(info *types.Info, call *ast.CallExpr, fn *types.Func) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || info.Selections[sel] == nil || info.Selections[sel].Kind() != types.MethodVal {
		return ""
	}
	name := types.ExprString(sel.X)
	if fn.Name() == "RLock" || fn.Name() == "RUnlock" {
		name += " (read)"
	}
	return name
}

// lockSet is a must-held lock set: lock name to acquisition site. States
// are never changed in place, so a path can share its parent's set.
type lockSet map[string]token.Pos

// meet is the lattice join of must-held sets: the locks held on both.
func (a lockSet) meet(b lockSet) lockSet {
	if len(a) == 0 {
		return a
	}
	out := lockSet{}
	for k, p := range a {
		if _, ok := b[k]; ok {
			out[k] = p
		}
	}
	return out
}

// with returns the set plus one lock (acquired at pos), or minus it when
// pos is NoPos.
func (a lockSet) with(name string, pos token.Pos) lockSet {
	if _, held := a[name]; !held && pos == token.NoPos {
		return a
	}
	out := make(lockSet, len(a)+1)
	for k, p := range a {
		out[k] = p
	}
	if pos == token.NoPos {
		delete(out, name)
	} else {
		out[name] = pos
	}
	return out
}

// names returns the held locks in sorted order.
func (a lockSet) names() []string {
	out := make([]string, 0, len(a))
	for k := range a {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// heldIndex answers "which locks are held here" for one function body and
// the literals in it: the must-held set on entry to the innermost walked
// statement containing a position, met over every time the walk reached
// the statement.
type heldIndex struct {
	stmts []ast.Stmt
	held  []lockSet
	index map[ast.Stmt]int
}

func (h *heldIndex) record(s ast.Stmt, held lockSet) {
	if i, ok := h.index[s]; ok {
		h.held[i] = h.held[i].meet(held)
		return
	}
	h.index[s] = len(h.stmts)
	h.stmts = append(h.stmts, s)
	h.held = append(h.held, held)
}

func (h *heldIndex) at(pos token.Pos) lockSet {
	best := -1
	for i, s := range h.stmts {
		if s.Pos() <= pos && pos < s.End() && (best < 0 || s.Pos() >= h.stmts[best].Pos()) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	return h.held[best]
}

// syncPrimitive reports whether t (or the type it points to) is a named
// type from sync or sync/atomic, or a channel. Values of these types are
// synchronization primitives themselves: capturing and using them across
// goroutines is their purpose, not a data race.
func syncPrimitive(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == "sync" || pkg.Path() == "sync/atomic"
}

package analysis

import (
	"go/ast"
	"slices"
	"strings"
	"testing"
)

// TestHeldSetsThroughPaths holds the lock lattice, as the path walker
// carries it, to what must be held at each marked statement: a trailing
// "// HELD: <locks>" ("-" for none) names the must-held set on entry.
// Loop bodies run zero, one and two times and meet their iterations,
// break and continue (labelled too) take their paths to the loop exit
// and the next iteration, goto continues in place, deferred unlocks run
// only at the return, and a function literal starts with nothing held.
// TryLock and a method expression's Lock are not modelled as held.
func TestHeldSetsThroughPaths(t *testing.T) {
	const src = `package fix

import "sync"

type box struct {
	mu sync.Mutex
	rw sync.RWMutex
	n  int
}

func (b *box) lockPerIteration(xs []int) {
	for _, x := range xs {
		b.mu.Lock()
		if x < 0 {
			b.mu.Unlock()
			continue
		}
		b.n += x // HELD: b.mu
		b.mu.Unlock()
	}
	b.n++ // HELD: -
}

func (b *box) lockInLoop(xs []int) {
	for range xs {
		b.n++ // HELD: -
		b.mu.Lock()
	}
	b.n-- // HELD: -
}

func (b *box) lockAroundLoop(xs []int) {
	b.mu.Lock()
	for range xs {
		b.n++ // HELD: b.mu
	}
	b.mu.Unlock()
	b.n-- // HELD: -
}

func (b *box) unlockOnBreak(xs []int) {
	b.mu.Lock()
	for _, x := range xs {
		if x < 0 {
			b.mu.Unlock()
			break
		}
		b.n += x // HELD: b.mu
	}
	b.n-- // HELD: -
}

func (b *box) deferred() int {
	b.rw.RLock()
	defer b.rw.RUnlock()
	b.mu.Lock()
	b.n++ // HELD: b.mu b.rw (read)
	b.mu.Unlock()
	return b.n // HELD: b.rw (read)
}

func (b *box) literal() func() {
	b.mu.Lock()
	defer b.mu.Unlock()
	return func() {
		b.n++ // HELD: -
	}
}

func (b *box) switched(k int, ch chan int) {
	switch k {
	case 0:
		b.mu.Lock()
	default:
		b.mu.Lock()
		b.rw.Lock()
	}
	b.n++ // HELD: b.mu
	select {
	case v := <-ch:
		b.n += v // HELD: b.mu
	case ch <- b.n:
		b.mu.Unlock()
	}
	b.n-- // HELD: -
}

func (b *box) labeled(xss [][]int, v any) {
	b.mu.Lock()
outer:
	for _, xs := range xss {
		for _, x := range xs {
			if x < 0 {
				b.mu.Unlock()
				break outer
			}
			if x == 0 {
				continue outer
			}
		}
		b.n++ // HELD: b.mu
	}
	b.n-- // HELD: -
	switch v.(type) {
	case int:
		b.mu.Lock()
	default:
		b.mu.Lock()
	}
	b.n += v.(int) + pair[int, string](1, "a") // HELD: b.mu
	for {
		b.mu.Unlock()
		return
	}
}

func pair[A, B any](A, B) int { return 0 }

func (b *box) jumps(k int) {
	b.mu.Lock()
	if k > 0 {
		goto done
	}
	b.n++ // HELD: b.mu
done:
	b.mu.Unlock()
	if b.mu.TryLock() {
		b.n-- // HELD: -
		b.mu.Unlock()
	}
	(*sync.Mutex).Lock(&b.mu)
	b.n++ // HELD: -
}
`
	pkg := fixturePkg(t, src)
	g := NewModule([]*Package{pkg}).Graph
	file := pkg.Files[0]
	checked := 0
	for _, cg := range file.Comments {
		want, ok := strings.CutPrefix(cg.Text(), "HELD: ")
		if !ok {
			continue
		}
		want = strings.TrimSpace(want)
		line := pkg.Fset.Position(cg.Pos()).Line
		var stmt ast.Stmt
		ast.Inspect(file, func(n ast.Node) bool {
			if s, ok := n.(ast.Stmt); ok && stmt == nil && pkg.Fset.Position(s.Pos()).Line == line {
				if _, block := s.(*ast.BlockStmt); !block {
					stmt = s
				}
			}
			return true
		})
		var fn *FuncNode
		for _, n := range g.Nodes() {
			if n.Decl.Pos() <= stmt.Pos() && stmt.Pos() < n.Decl.End() {
				fn = n
			}
		}
		var held []string
		for name := range walkLocks(fn).held.at(stmt.Pos()) {
			held = append(held, name)
		}
		slices.Sort(held)
		got := strings.Join(held, " ")
		if got == "" {
			got = "-"
		}
		if got != want {
			t.Errorf("line %d (%s): held %q, want %q", line, fn, got, want)
		}
		checked++
	}
	if checked != 20 {
		t.Fatalf("checked %d marked statements, want 20", checked)
	}
}

package analysis

import (
	"go/types"
	"strings"
)

// FactSet is a bitmask of behavioural facts about a function. Facts are
// computed bottom-up over the call graph's strongly connected components,
// so they are transitive: a function has acquiresLock if anything it can
// reach acquires a lock, across package boundaries and interface
// dispatch.
type FactSet uint8

const (
	// FactAcquiresLock: the function can acquire a sync.Mutex/RWMutex.
	FactAcquiresLock FactSet = 1 << iota
	// FactSpawnsGoroutine: the function can start a goroutine (a `go`
	// statement anywhere in its transitive call tree). sharecheck uses
	// this to treat function literals handed to spawning callees as
	// concurrently-executing bodies.
	FactSpawnsGoroutine
	// FactUsesAtomic: the function can perform a sync/atomic operation.
	// sharecheck accepts atomics (like acquiresLock) as a guard for
	// captured-value method calls.
	FactUsesAtomic

	factEnd
)

var factNames = map[FactSet]string{
	FactAcquiresLock:    "acquiresLock",
	FactSpawnsGoroutine: "spawnsGoroutine",
	FactUsesAtomic:      "usesAtomic",
}

// String renders the set as "acquiresLock|usesAtomic" ("pure" when
// empty).
func (f FactSet) String() string {
	if f == 0 {
		return "pure"
	}
	var parts []string
	for bit := FactSet(1); bit < factEnd; bit <<= 1 {
		if f&bit != 0 {
			parts = append(parts, factNames[bit])
		}
	}
	return strings.Join(parts, "|")
}

// stdFacts classifies a non-module (stdlib) function by its sync/atomic
// role: a lock acquisition (TryLock included) or an atomic operation.
func stdFacts(fn *types.Func) FactSet {
	switch syncKindOf(fn) {
	case lockAcquire, lockOther:
		return FactAcquiresLock
	case atomicFunc, atomicMethod:
		return FactUsesAtomic
	}
	return 0
}

// summarize condenses the graph into SCCs (Tarjan) and computes every
// function's facts in one callees-first pass: Tarjan emits each SCC only
// after every SCC it can reach, so the facts of a member's outside
// callees are final when its SCC comes up. The facts of an SCC are the
// union of its members' intrinsics and of every outside callee's facts
// (every member reaches every other).
func (g *CallGraph) summarize() {
	index := 0
	var stack []*FuncNode
	var sccs [][]*FuncNode
	var connect func(n *FuncNode)
	connect = func(n *FuncNode) {
		index++
		n.index, n.lowlink = index, index
		stack = append(stack, n)
		n.onStack = true
		for _, c := range n.Calls {
			for _, t := range c.Targets {
				if t.index == 0 {
					connect(t)
					if t.lowlink < n.lowlink {
						n.lowlink = t.lowlink
					}
				} else if t.onStack && t.index < n.lowlink {
					n.lowlink = t.index
				}
			}
		}
		if n.lowlink == n.index {
			var scc []*FuncNode
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				m.onStack = false
				scc = append(scc, m)
				if m == n {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, n := range g.order {
		if n.index == 0 {
			connect(n)
		}
	}

	for _, scc := range sccs {
		inSCC := make(map[*FuncNode]bool, len(scc))
		for _, m := range scc {
			inSCC[m] = true
		}
		var facts FactSet
		for _, m := range scc {
			facts |= m.Intrinsics
			for _, c := range m.Calls {
				facts |= c.Std
				for _, t := range c.Targets {
					if !inSCC[t] {
						facts |= t.Facts
					}
				}
			}
		}
		for _, m := range scc {
			m.Facts = facts
		}
	}
}

// ResolveName matches nodes by display name for the -facts flag: exact
// display name ("buffer.(*Pool).Get"), bare function name ("Get"), or a
// display-name suffix ("(*Pool).Get").
func (g *CallGraph) ResolveName(name string) []*FuncNode {
	var out []*FuncNode
	for _, n := range g.order {
		d := n.String()
		if d == name || n.Fn.Name() == name || strings.HasSuffix(d, name) {
			out = append(out, n)
		}
	}
	return out
}

// Module bundles the loaded packages with their call graph for
// module-scoped analyzers.
type Module struct {
	Pkgs  []*Package
	Graph *CallGraph
}

// NewModule builds the call graph over the given packages.
func NewModule(pkgs []*Package) *Module {
	return &Module{Pkgs: pkgs, Graph: NewCallGraph(pkgs)}
}

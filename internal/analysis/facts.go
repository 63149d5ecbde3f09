package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// FactSet is a bitmask of behavioural facts about a function. Facts are
// computed bottom-up over the call graph's strongly connected components,
// so they are transitive: a function has doesIO if anything it can reach
// does I/O, across package boundaries and interface dispatch.
type FactSet uint16

const (
	// FactDoesIO: the function can reach a disk/OS/network operation.
	FactDoesIO FactSet = 1 << iota
	// FactMayBlock: the function can block (channel ops, lock waits,
	// sleeps, I/O).
	FactMayBlock
	// FactAcquiresLock: the function can acquire a sync.Mutex/RWMutex.
	FactAcquiresLock
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
	FactDoesIO:          "doesIO",
	FactMayBlock:        "mayBlock",
	FactAcquiresLock:    "acquiresLock",
	FactSpawnsGoroutine: "spawnsGoroutine",
	FactUsesAtomic:      "usesAtomic",
}

// String renders the set as "doesIO|mayBlock" ("pure" when empty).
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

// Facts returns the individual bits of the set.
func (f FactSet) Facts() []FactSet {
	var out []FactSet
	for bit := FactSet(1); bit < factEnd; bit <<= 1 {
		if f&bit != 0 {
			out = append(out, bit)
		}
	}
	return out
}

// stdFacts classifies a non-module (stdlib) function into intrinsic
// facts. The table is deliberately coarse — anything in os/net/syscall
// counts as I/O — because iopurity-style checks want "cannot possibly
// touch the disk", not a precise effect system.
func stdFacts(fn *types.Func) FactSet {
	pkg := fn.Pkg()
	if pkg == nil {
		return 0
	}
	switch syncKindOf(fn) {
	case lockAcquire:
		return FactAcquiresLock | FactMayBlock
	case lockOther:
		return FactAcquiresLock // TryLock: conditional, never waits
	case atomicFunc, atomicMethod:
		return FactUsesAtomic
	case waitGroupWait:
		return FactMayBlock
	}
	path, name := pkg.Path(), fn.Name()
	switch {
	case path == "sync":
		if name == "Wait" || name == "Do" { // Cond.Wait, Once.Do
			return FactMayBlock
		}
	case path == "time":
		if name == "Sleep" {
			return FactMayBlock
		}
	case path == "os" || strings.HasPrefix(path, "os/"),
		path == "syscall" || strings.HasPrefix(path, "syscall/"),
		path == "net" || strings.HasPrefix(path, "net/"),
		path == "io/ioutil":
		return FactDoesIO | FactMayBlock
	case path == "fmt":
		if strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint") ||
			strings.HasPrefix(name, "Scan") || strings.HasPrefix(name, "Fscan") {
			return FactDoesIO | FactMayBlock
		}
	case path == "log" || strings.HasPrefix(path, "log/"):
		return FactDoesIO | FactMayBlock
	case path == "bufio":
		// Flushing/reading forwards to the wrapped reader/writer; the
		// wrapped value's origin carries the I/O fact where it matters.
	}
	return 0
}

// witness records how a function acquired one fact: through a call into
// callee, or (callee == nil) through an intrinsic in its own body.
type witness struct {
	callee *FuncNode
	pos    token.Pos
	what   string
}

// summarize condenses the graph into SCCs (Tarjan) and computes every
// per-function summary in one callees-first pass: Tarjan emits each SCC
// only after every SCC it can reach, so the summaries of a member's
// outside callees are final when its SCC comes up. It records each
// function's SCC; the facts of an SCC are the union of its members'
// intrinsics and of every outside callee's facts (every member reaches
// every other); the effect sets, where effect-table members are fixed
// contracts that cut the cycle, iterate over the SCC's members alone
// until stable.
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

	for id, scc := range sccs {
		inSCC := make(map[*FuncNode]bool, len(scc))
		for _, m := range scc {
			inSCC[m] = true
			m.scc = id
		}
		var facts FactSet
		for _, m := range scc {
			for _, in := range m.Intrinsics {
				facts |= in.Fact
			}
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
		assignWitnesses(scc, inSCC, facts)
		for changed := true; changed; {
			changed = false
			for _, m := range scc {
				var s EffectSet
				if en := effectEntry(m.Fn); en != nil {
					s = effects(en.trace...)
				} else {
					for _, c := range m.Calls {
						s |= siteEffects(c)
					}
				}
				if s != m.eff {
					m.eff, changed = s, true
				}
			}
		}
	}
}

// assignWitnesses records, for every member of an SCC and every fact the
// SCC carries, one concrete reason: an own intrinsic if the member has
// one, else a call to a function whose reason is already known. Iterating
// until fixpoint threads witnesses through cycles.
func assignWitnesses(scc []*FuncNode, inSCC map[*FuncNode]bool, facts FactSet) {
	for _, fact := range facts.Facts() {
		resolved := make(map[*FuncNode]bool, len(scc))
		for _, m := range scc {
			if w := ownWitness(m, fact); w != nil {
				m.via[fact] = w
				resolved[m] = true
			}
		}
		for changed := true; changed; {
			changed = false
			for _, m := range scc {
				if resolved[m] {
					continue
				}
			calls:
				for _, c := range m.Calls {
					for _, t := range c.Targets {
						if inSCC[t] && resolved[t] {
							m.via[fact] = &witness{callee: t, pos: c.Pos, what: c.Desc}
							resolved[m] = true
							changed = true
							break calls
						}
					}
				}
			}
		}
	}
}

// ownWitness finds a reason for the fact within the function itself: an
// intrinsic, or a call to an outside function already carrying the fact.
func ownWitness(m *FuncNode, fact FactSet) *witness {
	for _, in := range m.Intrinsics {
		if in.Fact&fact != 0 {
			return &witness{pos: in.Pos, what: in.What}
		}
	}
	for _, c := range m.Calls {
		for _, t := range c.Targets {
			if t.Facts&fact != 0 && t.via[fact] != nil {
				return &witness{callee: t, pos: c.Pos, what: c.Desc}
			}
		}
	}
	return nil
}

// FactChain explains how fn acquired fact as a call chain ending at the
// intrinsic source, one "who: why at file:line" entry per hop.
func (g *CallGraph) FactChain(n *FuncNode, fact FactSet) []string {
	var out []string
	seen := make(map[*FuncNode]bool)
	for n != nil && !seen[n] {
		seen[n] = true
		w := n.via[fact]
		if w == nil {
			out = append(out, n.String())
			break
		}
		pos := n.Pkg.Fset.Position(w.pos)
		loc := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		if w.callee == nil {
			out = append(out, fmt.Sprintf("%s: %s at %s", n, w.what, loc))
			break
		}
		out = append(out, fmt.Sprintf("%s: calls %s at %s", n, w.callee, loc))
		n = w.callee
	}
	return out
}

// RootSpec names a set of root functions for reachability-based checks.
type RootSpec struct {
	// Path is the import path holding the roots.
	Path string
	// Recv and Name select functions in Path as ScopeSpec does.
	Recv string
	Name string
}

func (s RootSpec) String() string {
	recv := ""
	if s.Recv != "" && s.Recv != "*" {
		recv = "(*" + s.Recv + ")."
	}
	base := s.Path
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	return base + "." + recv + s.Name
}

// Resolve returns the nodes matched by the spec, in graph order.
func (g *CallGraph) Resolve(spec RootSpec) []*FuncNode {
	var out []*FuncNode
	for _, n := range g.order {
		if n.Pkg.ImportPath == spec.Path && (ScopeSpec{spec.Recv, spec.Name}).Matches(n.Fn) {
			out = append(out, n)
		}
	}
	return out
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

	effects *Effects
}

// NewModule builds the call graph over the given packages.
func NewModule(pkgs []*Package) *Module {
	return &Module{Pkgs: pkgs, Graph: NewCallGraph(pkgs)}
}

// Effects returns the module's trace store, built on first use and
// shared by durcheck, errflow, and the -facts dump.
func (m *Module) Effects() *Effects {
	if m.effects == nil {
		m.effects = &Effects{bodies: make(map[*FuncNode][]EffTrace), lits: make(map[*ast.FuncLit][]EffTrace)}
	}
	return m.effects
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// This file extends the fact store from boolean facts to ORDERED effect
// summaries: per-function traces over a small alphabet of durability
// effects, composed bottom-up over the call graph. durcheck evaluates
// declarative ordering rules (rules.go) against the traces; errflow uses
// the per-site effect sets to classify error origins.
//
// The alphabet names the storage/WAL/buffer operations whose ORDER the
// §7e commit protocol constrains. Effects are recognized as intrinsics
// on well-known methods (the effect table below) rather than computed
// from those bodies: the table entry is the method's CONTRACT, the
// boundary callers reason at. WriteMeta, for instance, is fixed as
// [Sync, MetaWrite] — "the catalog publish syncs data first" — so every
// caller satisfies sync-before-publish by construction; that the
// implementations honour the contract is a tier-1 test's job
// (storage.TestWriteMetaSyncsInPlaceOverwrites), not a rule's.
//
// Traces are possibilistic: branches fork (union, unlike lockcheck's
// must-hold intersection), loops contribute zero, one, and two body
// iterations (two captures cross-iteration adjacency), deferred calls
// append at returns, and function literals are inlined where they appear
// (consistent with walkBody: the closure body is assumed to execute
// within the enclosing function's dynamic extent). Known gaps, shared
// with the fact store: calls
// through plain function values contribute nothing, and a stored
// closure's effects are credited at its definition point.

// Effect is one durability-relevant operation in the effect alphabet.
type Effect uint8

const (
	// EffPageWrite: a data-page write on a DiskManager (WritePage).
	EffPageWrite Effect = iota
	// EffMetaWrite: a catalog/header publish (WriteMeta, writeHeader).
	EffMetaWrite
	// EffSync: an fsync barrier (Sync, syncManager).
	EffSync
	// EffLogAppend: WAL record appends (the data half of AppendBatch).
	EffLogAppend
	// EffCommit: the WAL commit point — the log device's meta-blob write
	// that moves the commit horizon (the tail of AppendBatch).
	EffCommit
	// EffWriteBack: a buffer-pool write-back (FlushDirty, Put's victim).
	EffWriteBack
	// EffCheckpoint: a WAL checkpoint (truncates the redo log).
	EffCheckpoint

	numEffects
)

var effectNames = [numEffects]string{
	"PageWrite", "MetaWrite", "Sync", "LogAppend", "Commit", "WriteBack", "Checkpoint",
}

func (e Effect) String() string {
	if int(e) < len(effectNames) {
		return effectNames[e]
	}
	return fmt.Sprintf("Effect(%d)", int(e))
}

// EffectSet is a bitmask over the effect alphabet.
type EffectSet uint16

// Bit returns the effect's set bit.
func (e Effect) Bit() EffectSet { return 1 << EffectSet(e) }

// Has reports whether the set contains the effect.
func (s EffectSet) Has(e Effect) bool { return s&e.Bit() != 0 }

// Effects returns the members in alphabet order.
func (s EffectSet) Effects() []Effect {
	var out []Effect
	for e := Effect(0); e < numEffects; e++ {
		if s.Has(e) {
			out = append(out, e)
		}
	}
	return out
}

// String renders the set as "PageWrite|Sync" ("none" when empty).
func (s EffectSet) String() string {
	if s == 0 {
		return "none"
	}
	var parts []string
	for _, e := range s.Effects() {
		parts = append(parts, e.String())
	}
	return strings.Join(parts, "|")
}

func effects(es ...Effect) EffectSet {
	var s EffectSet
	for _, e := range es {
		s |= e.Bit()
	}
	return s
}

// effectIntrinsic fixes a method's effect trace by contract. recv is the
// receiver's named base type; "" matches package-level functions only,
// "*" matches any callee with the name (exact receiver entries win).
// Matching is by name, not package, deliberately: fixture packages model
// the protocol with their own WAL/Pool/manager shapes and participate in
// the same rules.
type effectIntrinsic struct {
	recv  string
	name  string
	trace []Effect
	what  string
}

var effectTable = []effectIntrinsic{
	{"WAL", "AppendBatch", []Effect{EffLogAppend, EffCommit},
		"WAL batch append ending at the commit-point meta write"},
	{"WAL", "Checkpoint", []Effect{EffCheckpoint},
		"WAL checkpoint (truncates the redo log)"},
	{"Pool", "Put", []Effect{EffWriteBack}, "pool install (may write back the dirty pages first)"},
	{"Pool", "FlushDirty", []Effect{EffWriteBack}, "pool write-back of all dirty pages"},
	{"Pool", "flushPage", []Effect{EffWriteBack}, "pool write-back of one page"},
	{"Pool", "makeRoom", []Effect{EffWriteBack}, "pool write-back of the dirty pages before an eviction"},
	{"", "syncManager", []Effect{EffSync},
		"page-file sync point (no-op only for unsyncable managers)"},
	{"*", "WritePage", []Effect{EffPageWrite}, "data-page write"},
	{"*", "WriteMeta", []Effect{EffSync, EffMetaWrite},
		"catalog publish (contract: unsynced data is synced first)"},
	{"*", "writeHeader", []Effect{EffMetaWrite}, "header/catalog publish"},
	{"*", "Sync", []Effect{EffSync}, "fsync to stable storage"},
}

// effectEntry resolves a callee against the effect table. Exact receiver
// matches beat the "*" wildcards.
func effectEntry(fn *types.Func) *effectIntrinsic {
	if fn == nil {
		return nil
	}
	name, recv := fn.Name(), recvBase(fn)
	var wild *effectIntrinsic
	for i := range effectTable {
		en := &effectTable[i]
		if en.name != name {
			continue
		}
		if en.recv == recv {
			return en
		}
		if en.recv == "*" && wild == nil {
			wild = en
		}
	}
	return wild
}

// EffEvent is one effect occurrence in a trace. Fn/Pos locate the call
// (or intrinsic) in the function whose trace holds the event; Inner is
// the callee's own event when the effect arrived through composition,
// nil at the effect-table boundary. Following Inner renders the
// interprocedural witness chain.
type EffEvent struct {
	Eff   Effect
	Fn    *FuncNode
	Pos   token.Pos
	What  string
	Inner *EffEvent
}

// Innermost follows the composition chain to the event at the effect
// boundary — the call the effect is actually attributed to.
func (ev *EffEvent) Innermost() *EffEvent {
	for ev.Inner != nil {
		ev = ev.Inner
	}
	return ev
}

// EffTrace is one possible ordered effect sequence through a function
// body, from entry to one return.
type EffTrace struct {
	Events []*EffEvent
	// Approx marks traces that lost precision: a recursive callee
	// contributed its effect set as an unordered clump, or the trace or
	// fork budget was exceeded. The rules skip approximate traces (no
	// false positives from invented orders).
	Approx bool
}

// String renders the trace as its effect sequence.
func (t EffTrace) String() string {
	parts := make([]string, 0, len(t.Events)+1)
	for _, ev := range t.Events {
		parts = append(parts, ev.Eff.String())
	}
	if len(parts) == 0 {
		parts = append(parts, "(no effects)")
	}
	if t.Approx {
		parts = append(parts, "(approx)")
	}
	return strings.Join(parts, " ")
}

// Set returns the union of the trace's effects.
func (t EffTrace) Set() EffectSet {
	var s EffectSet
	for _, ev := range t.Events {
		s |= ev.Eff.Bit()
	}
	return s
}

const (
	// maxEffTraces bounds the fork fan-out per function; beyond it the
	// surviving traces are marked approximate.
	maxEffTraces = 160
	// maxEffEvents bounds one trace's length the same way.
	maxEffEvents = 48
)

// Effects is the module's effect store: per-function transitive effect
// sets (a cheap pre-pass) and lazily computed, memoized traces.
type Effects struct {
	g      *CallGraph
	sets   map[*FuncNode]EffectSet
	bodies map[*FuncNode][]EffTrace
	inBody map[*FuncNode]bool
}

// NewEffects builds the effect store over a call graph, computing the
// per-function effect sets eagerly (traces are computed on demand).
func NewEffects(g *CallGraph) *Effects {
	e := &Effects{
		g:      g,
		sets:   make(map[*FuncNode]EffectSet),
		bodies: make(map[*FuncNode][]EffTrace),
		inBody: make(map[*FuncNode]bool),
	}
	e.computeSets()
	return e
}

// computeSets runs the effect-set fixpoint: a table-fixed function's set
// is its contract; everything else unions its call sites. Effects are
// sparse, so this converges in a few passes.
func (e *Effects) computeSets() {
	fixed := make(map[*FuncNode]bool)
	for _, n := range e.g.order {
		if en := effectEntry(n.Fn); en != nil {
			e.sets[n] = effects(en.trace...)
			fixed[n] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, n := range e.g.order {
			if fixed[n] {
				continue
			}
			var s EffectSet
			for _, c := range n.Calls {
				s |= e.SiteEffects(c)
			}
			if s != e.sets[n] {
				e.sets[n] = s
				changed = true
			}
		}
	}
}

// EffectSet returns the function's transitive effect set: its effect
// contract when table-fixed, else the union over everything it calls.
func (e *Effects) EffectSet(n *FuncNode) EffectSet { return e.sets[n] }

// SiteEffects returns the effects one call site can perform: the effect
// table's contract for the callee when it has one, else the union of the
// possible targets' sets. Value references contribute nothing (the
// indirection gap the fact store shares).
func (e *Effects) SiteEffects(c *Call) EffectSet {
	if c.Ref {
		return 0
	}
	if en := effectEntry(c.Callee); en != nil {
		return effects(en.trace...)
	}
	var s EffectSet
	for _, t := range c.Targets {
		s |= e.sets[t]
	}
	return s
}

// BodyTraces returns the traces computed from the function's own body —
// the implementation view, checked against scoped rules even when
// callers see a table contract instead. Recursion degrades to an
// unordered, approximate effect clump.
func (e *Effects) BodyTraces(n *FuncNode) []EffTrace {
	if ts, ok := e.bodies[n]; ok {
		return ts
	}
	if n.Decl.Body == nil {
		ts := []EffTrace{{}}
		e.bodies[n] = ts
		return ts
	}
	if e.inBody[n] {
		return []EffTrace{e.clumpTrace(n)}
	}
	e.inBody[n] = true
	sc := &effScanner{e: e, n: n}
	st, terminated := sc.block(n.Decl.Body.List, []EffTrace{{}})
	if !terminated {
		sc.ret(nil, st) // fall off the end: a clean return
	}
	ts := dedupTraces(sc.returned)
	if len(ts) == 0 {
		ts = []EffTrace{{}}
	}
	delete(e.inBody, n)
	e.bodies[n] = ts
	return ts
}

// Summary returns the traces callers compose: the fixed contract for
// table entries, the body traces otherwise.
func (e *Effects) Summary(n *FuncNode) []EffTrace {
	if en := effectEntry(n.Fn); en != nil {
		evs := make([]*EffEvent, len(en.trace))
		for i, eff := range en.trace {
			evs[i] = &EffEvent{Eff: eff, Fn: n, Pos: n.Decl.Pos(), What: en.what}
		}
		return []EffTrace{{Events: evs}}
	}
	return e.BodyTraces(n)
}

// clumpTrace is the recursion fallback: the function's transitive effect
// set emitted once, in alphabet order, marked approximate.
func (e *Effects) clumpTrace(n *FuncNode) EffTrace {
	var evs []*EffEvent
	for _, eff := range e.sets[n].Effects() {
		evs = append(evs, &EffEvent{
			Eff: eff, Fn: n, Pos: n.Decl.Pos(),
			What: "recursive call cycle (effect order unknown)",
		})
	}
	return EffTrace{Events: evs, Approx: true}
}

// EventChain renders an event's interprocedural witness chain, one
// "who: why at file:line" hop per composition level, ending at the
// effect-table boundary.
func EventChain(ev *EffEvent) []string {
	var out []string
	for ev != nil {
		pos := ev.Fn.Pkg.Fset.Position(ev.Pos)
		loc := fmt.Sprintf("%s:%d", filepath.Base(pos.Filename), pos.Line)
		if ev.Inner == nil {
			out = append(out, fmt.Sprintf("%s: %s [%s] at %s", ev.Fn, ev.What, ev.Eff, loc))
		} else {
			out = append(out, fmt.Sprintf("%s: %s at %s", ev.Fn, ev.What, loc))
		}
		ev = ev.Inner
	}
	return out
}

// traceVariant is one way a call site (or inlined closure) can behave.
type traceVariant struct {
	events []*EffEvent
	approx bool
}

// siteVariants expands one call site into its trace variants: the table
// contract when the callee has one, else every summary trace of every
// possible target.
func (e *Effects) siteVariants(n *FuncNode, c *Call) []traceVariant {
	if c.Ref {
		return []traceVariant{{}}
	}
	if en := effectEntry(c.Callee); en != nil {
		evs := make([]*EffEvent, len(en.trace))
		for i, eff := range en.trace {
			evs[i] = &EffEvent{Eff: eff, Fn: n, Pos: c.Pos, What: c.Desc + ": " + en.what}
		}
		return []traceVariant{{events: evs}}
	}
	var out []traceVariant
	for _, t := range c.Targets {
		if e.sets[t] == 0 {
			continue // effect-free: contributes only the empty variant below
		}
		for _, tr := range t.wrapTraces(e, n, c) {
			out = append(out, tr)
		}
	}
	if len(out) == 0 {
		return []traceVariant{{}}
	}
	// A dispatch site may also resolve to effect-free implementations;
	// keep the empty variant so their path is not lost.
	if len(out) > 0 && c.Dispatch {
		out = append(out, traceVariant{})
	}
	return out
}

// wrapTraces lifts the target's summary traces into the caller: each
// event is wrapped with the call site so witness chains thread through.
func (t *FuncNode) wrapTraces(e *Effects, caller *FuncNode, c *Call) []traceVariant {
	sums := e.Summary(t)
	out := make([]traceVariant, 0, len(sums))
	for _, tr := range sums {
		v := traceVariant{approx: tr.Approx}
		if len(tr.Events) > 0 {
			v.events = make([]*EffEvent, len(tr.Events))
			for i, ev := range tr.Events {
				v.events[i] = &EffEvent{
					Eff: ev.Eff, Fn: caller, Pos: c.Pos,
					What: "calls " + t.String(), Inner: ev,
				}
			}
		}
		out = append(out, v)
	}
	return out
}

// dedupTraces collapses traces with identical effect signatures, keeping
// the first witness of each, and enforces the fork budget.
func dedupTraces(ts []EffTrace) []EffTrace {
	seen := make(map[string]bool, len(ts))
	out := ts[:0:0]
	for _, t := range ts {
		var sb strings.Builder
		for _, ev := range t.Events {
			sb.WriteByte(byte(ev.Eff))
		}
		if t.Approx {
			sb.WriteByte('A')
		}
		sig := sb.String()
		if seen[sig] {
			continue
		}
		seen[sig] = true
		out = append(out, t)
		if len(out) >= maxEffTraces {
			for i := range out {
				out[i].Approx = true
			}
			break
		}
	}
	return out
}

// effScanner computes one function's body traces: a path-forking walk in
// source order, composing callee summaries at call sites.
type effScanner struct {
	e        *Effects
	n        *FuncNode
	returned []EffTrace
	defers   [][]traceVariant
}

// apply composes the variants of one call site onto every live trace.
func (s *effScanner) apply(st []EffTrace, variants []traceVariant) []EffTrace {
	if len(variants) == 1 && len(variants[0].events) == 0 && !variants[0].approx {
		return st // the common effect-free call: nothing to fork
	}
	out := make([]EffTrace, 0, len(st)*len(variants))
	for _, t := range st {
		for _, v := range variants {
			nt := t
			nt.Approx = nt.Approx || v.approx
			if len(v.events) > 0 {
				// Adjacent identical effects collapse (first witness
				// kept): every rule kind quantifies over the relative
				// order of DISTINCT effects, so [PageWrite PageWrite]
				// and [PageWrite] are rule-equivalent — and collapsing
				// is what keeps loop-heavy bodies (replay, flush) from
				// blowing the fork budget on iteration-count noise.
				evs := append([]*EffEvent(nil), t.Events...)
				for _, ev := range v.events {
					if len(evs) > 0 && evs[len(evs)-1].Eff == ev.Eff {
						continue
					}
					evs = append(evs, ev)
				}
				if len(evs) > maxEffEvents {
					nt.Approx = true
				} else {
					nt.Events = evs
				}
			}
			out = append(out, nt)
		}
	}
	return dedupTraces(out)
}

// expr walks an expression in approximate evaluation order (operands
// before the call that consumes them), applying call sites and inlining
// function literals where they appear.
func (s *effScanner) expr(ex ast.Expr, st []EffTrace) []EffTrace {
	switch x := ex.(type) {
	case nil:
		return st
	case *ast.CallExpr:
		st = s.expr(x.Fun, st)
		for _, a := range x.Args {
			st = s.expr(a, st)
		}
		if c := s.n.SiteAt(x.Pos()); c != nil {
			st = s.apply(st, s.e.siteVariants(s.n, c))
		}
		return st
	case *ast.FuncLit:
		// Inline the literal's effects at its definition point — the
		// same "executes within this function's dynamic extent"
		// assumption walkBody makes. Its returns are its own, so scan
		// it as a sub-function and splice the result in.
		sub := &effScanner{e: s.e, n: s.n}
		sst, term := sub.block(x.Body.List, []EffTrace{{}})
		if !term {
			sub.ret(nil, sst)
		}
		var variants []traceVariant
		for _, t := range dedupTraces(sub.returned) {
			variants = append(variants, traceVariant{events: t.Events, approx: t.Approx})
		}
		if len(variants) == 0 {
			return st
		}
		return s.apply(st, variants)
	case *ast.ParenExpr:
		return s.expr(x.X, st)
	case *ast.SelectorExpr:
		return s.expr(x.X, st)
	case *ast.StarExpr:
		return s.expr(x.X, st)
	case *ast.UnaryExpr:
		return s.expr(x.X, st)
	case *ast.BinaryExpr:
		return s.expr(x.Y, s.expr(x.X, st))
	case *ast.IndexExpr:
		return s.expr(x.Index, s.expr(x.X, st))
	case *ast.IndexListExpr:
		return s.expr(x.X, st)
	case *ast.SliceExpr:
		st = s.expr(x.X, st)
		st = s.expr(x.Low, st)
		st = s.expr(x.High, st)
		return s.expr(x.Max, st)
	case *ast.TypeAssertExpr:
		return s.expr(x.X, st)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			st = s.expr(el, st)
		}
		return st
	case *ast.KeyValueExpr:
		return s.expr(x.Value, st)
	default:
		return st
	}
}

// block scans a statement list; terminated means every path returned.
func (s *effScanner) block(list []ast.Stmt, st []EffTrace) ([]EffTrace, bool) {
	for _, stmt := range list {
		var term bool
		st, term = s.stmt(stmt, st)
		if term {
			return nil, true
		}
	}
	return st, false
}

func (s *effScanner) stmt(stmt ast.Stmt, st []EffTrace) ([]EffTrace, bool) {
	switch x := stmt.(type) {
	case *ast.ExprStmt:
		return s.expr(x.X, st), false
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			st = s.expr(r, st)
		}
		for _, l := range x.Lhs {
			st = s.expr(l, st)
		}
		return st, false
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						st = s.expr(v, st)
					}
				}
			}
		}
		return st, false
	case *ast.IncDecStmt:
		return s.expr(x.X, st), false
	case *ast.SendStmt:
		return s.expr(x.Value, s.expr(x.Chan, st)), false
	case *ast.ReturnStmt:
		s.ret(x, st)
		return nil, true
	case *ast.BlockStmt:
		return s.block(x.List, st)
	case *ast.IfStmt:
		if x.Init != nil {
			st, _ = s.stmt(x.Init, st)
		}
		st = s.expr(x.Cond, st)
		thenSt, thenTerm := s.block(x.Body.List, st)
		elseSt, elseTerm := st, false
		if x.Else != nil {
			elseSt, elseTerm = s.stmt(x.Else, st)
		}
		switch {
		case thenTerm && elseTerm:
			return nil, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		}
		return dedupTraces(append(append([]EffTrace(nil), thenSt...), elseSt...)), false
	case *ast.ForStmt:
		if x.Init != nil {
			st, _ = s.stmt(x.Init, st)
		}
		st = s.expr(x.Cond, st)
		return s.loop(x.Body, x.Post, st), false
	case *ast.RangeStmt:
		st = s.expr(x.X, st)
		return s.loop(x.Body, nil, st), false
	case *ast.SwitchStmt:
		if x.Init != nil {
			st, _ = s.stmt(x.Init, st)
		}
		st = s.expr(x.Tag, st)
		return s.clauses(x.Body.List, st)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			st, _ = s.stmt(x.Init, st)
		}
		st, _ = s.stmt(x.Assign, st)
		return s.clauses(x.Body.List, st)
	case *ast.SelectStmt:
		return s.clauses(x.Body.List, st)
	case *ast.DeferStmt:
		// Arguments evaluate now; the call itself runs at every return.
		st = s.expr(x.Call.Fun, st)
		for _, a := range x.Call.Args {
			st = s.expr(a, st)
		}
		if c := s.n.SiteAt(x.Call.Pos()); c != nil {
			s.defers = append(s.defers, s.e.siteVariants(s.n, c))
		}
		return st, false
	case *ast.GoStmt:
		// Spawn-point approximation: the goroutine's effects land where
		// it was started (their true interleaving is unknowable here).
		return s.expr(x.Call, st), false
	case *ast.LabeledStmt:
		return s.stmt(x.Stmt, st)
	case *ast.BranchStmt:
		// break/continue/goto fall through: the possibilistic union of
		// orders keeps every real trace present, at the cost of a few
		// impossible ones.
		return st, false
	default:
		return st, false
	}
}

// loop models a loop as zero, one, or two body executions — two is the
// cheapest shape that exposes cross-iteration effect adjacency.
func (s *effScanner) loop(body *ast.BlockStmt, post ast.Stmt, st []EffTrace) []EffTrace {
	out := append([]EffTrace(nil), st...)
	b1, t1 := s.block(body.List, st)
	if !t1 {
		if post != nil {
			b1, _ = s.stmt(post, b1)
		}
		out = append(out, b1...)
		b2, t2 := s.block(body.List, b1)
		if !t2 {
			out = append(out, b2...)
		}
	}
	return dedupTraces(out)
}

// clauses forks over a switch/select's case bodies. The no-case-taken
// path is always kept: a switch without a default falls through, and
// modeling an exhaustive one the same way only adds a skip trace.
func (s *effScanner) clauses(list []ast.Stmt, st []EffTrace) ([]EffTrace, bool) {
	out := append([]EffTrace(nil), st...)
	for _, cl := range list {
		var body []ast.Stmt
		switch c := cl.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				st = s.expr(e, st)
			}
			body = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				st, _ = s.stmt(c.Comm, st)
			}
			body = c.Body
		default:
			continue
		}
		cst, cterm := s.block(body, st)
		if !cterm {
			out = append(out, cst...)
		}
	}
	return dedupTraces(out), false
}

// ret records the current traces as returns of the function: result
// expressions evaluate, then deferred calls run last-in-first-out.
func (s *effScanner) ret(x *ast.ReturnStmt, st []EffTrace) {
	if x != nil {
		for _, r := range x.Results {
			st = s.expr(r, st)
		}
	}
	for i := len(s.defers) - 1; i >= 0; i-- {
		st = s.apply(st, s.defers[i])
	}
	s.returned = append(s.returned, st...)
}

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
// declarative ordering rules (rules.go) against the traces; errflow reads
// the traces reaching each return, and the per-site effect sets to
// classify error origins.
//
// The alphabet names the storage/WAL/buffer operations whose ORDER the
// §7e commit protocol constrains. Effects are recognized as intrinsics
// on well-known methods (the effect table below) rather than computed
// from those bodies: the table entry is the method's CONTRACT, the
// boundary callers reason at. WriteMeta, for instance, is fixed as
// [Sync, MetaWrite] — "the catalog publish syncs data first" — so every
// caller publishes synced data by construction; that the implementations
// honour the contract is a tier-1 test's job
// (storage.TestWriteMetaSyncsInPlaceOverwrites), not a rule's.
//
// Traces are possibilistic: the path walker (flow.go) forks at branches
// and joins by union (unlike the lock lattice's must-held intersection), loops
// contribute zero, one, and two body iterations (two captures
// cross-iteration adjacency), deferred calls append at returns, and
// function literals are inlined where they appear (consistent with
// walkBody: the closure body is assumed to execute within the enclosing
// function's dynamic extent). Known gaps, shared with the fact store:
// calls through plain function values contribute nothing, and a stored
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

// effectIntrinsic fixes a method's effect trace by contract. Matching is
// by receiver and name (ScopeSpec), not package, deliberately: fixture
// packages model the protocol with their own WAL/Pool/manager shapes and
// participate in the same rules.
type effectIntrinsic struct {
	ScopeSpec
	trace []Effect
	what  string
}

// effectTable lists the exact receivers before the "*" wildcards, so the
// first match is the most specific one.
var effectTable = []effectIntrinsic{
	{ScopeSpec{"WAL", "AppendBatch"}, []Effect{EffLogAppend, EffCommit},
		"WAL batch append ending at the commit-point meta write"},
	{ScopeSpec{"WAL", "Checkpoint"}, []Effect{EffCheckpoint},
		"WAL checkpoint (truncates the redo log)"},
	{ScopeSpec{"Pool", "Put"}, []Effect{EffWriteBack}, "pool install (may write back the dirty pages first)"},
	{ScopeSpec{"Pool", "FlushDirty"}, []Effect{EffWriteBack}, "pool write-back of all dirty pages"},
	{ScopeSpec{"Pool", "flushPage"}, []Effect{EffWriteBack}, "pool write-back of one page"},
	{ScopeSpec{"Pool", "makeRoom"}, []Effect{EffWriteBack}, "pool write-back of the dirty pages before an eviction"},
	{ScopeSpec{"", "syncManager"}, []Effect{EffSync},
		"page-file sync point (no-op only for unsyncable managers)"},
	{ScopeSpec{"*", "WritePage"}, []Effect{EffPageWrite}, "data-page write"},
	{ScopeSpec{"*", "WriteMeta"}, []Effect{EffSync, EffMetaWrite},
		"catalog publish (contract: unsynced data is synced first)"},
	{ScopeSpec{"*", "writeHeader"}, []Effect{EffMetaWrite}, "header/catalog publish"},
	{ScopeSpec{"*", "Sync"}, []Effect{EffSync}, "fsync to stable storage"},
}

// effectEntry resolves a callee against the effect table.
func effectEntry(fn *types.Func) *effectIntrinsic {
	for i := range effectTable {
		if fn != nil && effectTable[i].Matches(fn) {
			return &effectTable[i]
		}
	}
	return nil
}

// contract renders the entry's fixed trace as events at pos in fn.
func (en *effectIntrinsic) contract(fn *FuncNode, pos token.Pos, what string) []EffTrace {
	evs := make([]*EffEvent, len(en.trace))
	for i, eff := range en.trace {
		evs[i] = &EffEvent{Eff: eff, Fn: fn, Pos: pos, What: what}
	}
	return []EffTrace{{Events: evs}}
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

// Effects is the module's trace store: lazily computed, memoized body
// traces. The per-function effect sets are call-graph summaries
// (FuncNode.eff), computed with the facts in one SCC pass.
type Effects struct {
	bodies map[*FuncNode][]EffTrace
	lits   map[*ast.FuncLit][]EffTrace
}

// EffectSet returns the function's transitive effect set: its effect
// contract when table-fixed, else the union over everything it calls.
func (e *Effects) EffectSet(n *FuncNode) EffectSet { return n.eff }

// SiteEffects returns the effects one call site can perform.
func (e *Effects) SiteEffects(c *Call) EffectSet { return siteEffects(c) }

// siteEffects is the effect table's contract for the callee when it has
// one, else the union of the possible targets' sets. Value references
// contribute nothing (the indirection gap the fact store shares).
func siteEffects(c *Call) EffectSet {
	if c.Ref {
		return 0
	}
	if en := effectEntry(c.Callee); en != nil {
		return effects(en.trace...)
	}
	var s EffectSet
	for _, t := range c.Targets {
		s |= t.eff
	}
	return s
}

// BodyTraces returns the traces computed from the function's own body —
// the implementation view, checked against scoped rules even when
// callers see a table contract instead.
func (e *Effects) BodyTraces(n *FuncNode) []EffTrace {
	ts, ok := e.bodies[n]
	if !ok {
		ts = e.walk(n, n.Decl.Body, nil)
		e.bodies[n] = ts
	}
	return ts
}

// walk runs the trace lattice over one body of n (its own, or a literal
// in it). onReturn, when set, makes it errflow's walk: the traces are
// over the Commit effect alone, a call contributing one when its
// effect set has one (no callee body is walked), and onReturn sees the
// traces reaching each return statement with its results evaluated and
// its defers not yet run.
func (e *Effects) walk(n *FuncNode, body *ast.BlockStmt, onReturn func(*ast.ReturnStmt, []EffTrace)) []EffTrace {
	f := &traceFlow{e: e, n: n, onReturn: onReturn}
	if body != nil {
		walkPaths[[]EffTrace](f, body, []EffTrace{{}})
	}
	if ts := dedupTraces(f.returned); len(ts) > 0 {
		return ts
	}
	return []EffTrace{{}}
}

// Summary returns the traces callers compose: the fixed contract for
// table entries, the body traces otherwise.
func (e *Effects) Summary(n *FuncNode) []EffTrace {
	if en := effectEntry(n.Fn); en != nil {
		return en.contract(n, n.Decl.Pos(), en.what)
	}
	return e.BodyTraces(n)
}

// clumpTrace stands in for a call into the caller's own SCC: the callee's
// transitive effect set emitted once, in alphabet order, marked
// approximate. Clumping every such call, whichever member is asked for
// first, keeps a function's traces independent of query order.
func clumpTrace(n *FuncNode) EffTrace {
	var evs []*EffEvent
	for _, eff := range n.eff.Effects() {
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

// siteVariants expands one call site of n into the ways it can behave:
// the table contract when the callee has one, else every summary trace
// of every possible target — a clump for a target in n's own SCC — with
// each event wrapped by the call site so witness chains thread through.
func (e *Effects) siteVariants(n *FuncNode, c *Call) []EffTrace {
	if c.Ref {
		return nil
	}
	if en := effectEntry(c.Callee); en != nil {
		return en.contract(n, c.Pos, c.Desc+": "+en.what)
	}
	var out []EffTrace
	for _, t := range c.Targets {
		if t.eff == 0 {
			continue // effect-free: no events to compose
		}
		var sums []EffTrace
		if t.scc == n.scc && effectEntry(t.Fn) == nil {
			sums = []EffTrace{clumpTrace(t)}
		} else {
			sums = e.Summary(t)
		}
		for _, tr := range sums {
			v := EffTrace{Approx: tr.Approx}
			for _, ev := range tr.Events {
				v.Events = append(v.Events, &EffEvent{
					Eff: ev.Eff, Fn: n, Pos: c.Pos, What: "calls " + t.String(), Inner: ev,
				})
			}
			out = append(out, v)
		}
	}
	// A dispatch site may also resolve to effect-free implementations;
	// keep the empty variant so their path is not lost.
	if len(out) > 0 && c.Dispatch {
		out = append(out, EffTrace{})
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

// compose appends each variant of one step to every live trace.
func compose(st, variants []EffTrace) []EffTrace {
	if len(variants) == 0 || len(variants) == 1 && len(variants[0].Events) == 0 && !variants[0].Approx {
		return st // the common effect-free step: nothing to fork
	}
	out := make([]EffTrace, 0, len(st)*len(variants))
	for _, t := range st {
		for _, v := range variants {
			nt := t
			nt.Approx = nt.Approx || v.Approx
			if len(v.Events) > 0 {
				// Adjacent identical effects collapse (first witness
				// kept): every rule kind quantifies over the relative
				// order of DISTINCT effects, so [PageWrite PageWrite]
				// and [PageWrite] are rule-equivalent — and collapsing
				// is what keeps loop-heavy bodies (replay, flush) from
				// blowing the fork budget on iteration-count noise.
				evs := append([]*EffEvent(nil), t.Events...)
				for _, ev := range v.Events {
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

// traceFlow is the path walker's trace lattice: the possible effect
// traces so far, joined by union. A call composes its site variants, a
// go statement lands its call's effects at the spawn point, and a
// function literal is inlined where it is defined: its own body's traces
// (memoized per literal) are spliced in.
type traceFlow struct {
	e        *Effects
	n        *FuncNode
	returned []EffTrace
	onReturn func(*ast.ReturnStmt, []EffTrace)
}

func (f *traceFlow) join(a, b []EffTrace) []EffTrace {
	return dedupTraces(append(append([]EffTrace(nil), a...), b...))
}

func (f *traceFlow) enter([]EffTrace, ast.Stmt) {}

func (f *traceFlow) exit(st []EffTrace, _ *ast.ReturnStmt, _ token.Pos) {
	f.returned = append(f.returned, st...)
}

func (f *traceFlow) step(st []EffTrace, node ast.Node) []EffTrace {
	switch x := node.(type) {
	case *ast.GoStmt:
		return f.step(st, x.Call)
	case *ast.CallExpr:
		c := f.n.SiteAt(x)
		switch {
		case c == nil:
		case f.onReturn == nil:
			return compose(st, f.e.siteVariants(f.n, c))
		case siteEffects(c).Has(EffCommit):
			return compose(st, []EffTrace{{Events: []*EffEvent{{Eff: EffCommit, Fn: f.n, Pos: c.Pos, What: c.Desc}}}})
		}
	case *ast.FuncLit:
		if f.onReturn != nil {
			return compose(st, f.e.walk(f.n, x.Body, func(*ast.ReturnStmt, []EffTrace) {}))
		}
		ts, ok := f.e.lits[x]
		if !ok {
			ts = f.e.walk(f.n, x.Body, nil)
			f.e.lits[x] = ts
		}
		return compose(st, ts)
	case *ast.ReturnStmt:
		if f.onReturn != nil {
			f.onReturn(x, st)
		}
	}
	return st
}

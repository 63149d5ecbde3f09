package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// The durability rule language. A Rule constrains the ORDER of effects in
// the traces of the functions it scopes to, in one of a handful of
// declarative shapes (RuleKind); durcheck evaluates every ordering rule,
// errflow owns the one error-discipline rule. Each rule names the §7e
// commit-protocol step it encodes (see DESIGN.md §7a, "Effect ordering &
// durability analyses") and is explained by `rtreelint -explain <rule>`.
//
// Every kind quantifies over every non-approximate body trace:
// approximate traces have invented orders (recursion clumps, budget
// overflows) that would manufacture false positives.

// RuleKind selects the temporal shape a rule checks.
type RuleKind uint8

const (
	// RulePrecedes: on every trace, no B-effect occurs before the first
	// A-effect ("A precedes B on all paths").
	RulePrecedes RuleKind = iota
	// RuleSeparated: on every trace, a B-effect intervenes between any
	// A-effect and a later C-effect ("no unseparated A published by C").
	RuleSeparated
	// RuleNever: no trace contains any A-effect.
	RuleNever
	// RuleErrFlow: commit-path error discipline, implemented by errflow
	// (the entry exists so -explain covers it).
	RuleErrFlow
)

func (k RuleKind) String() string {
	switch k {
	case RulePrecedes:
		return "A precedes B on all paths"
	case RuleSeparated:
		return "B separates every A from a later C, on all paths"
	case RuleNever:
		return "no path performs A"
	case RuleErrFlow:
		return "post-commit errors must not become the operation error"
	}
	return fmt.Sprintf("RuleKind(%d)", uint8(k))
}

// ScopeSpec selects functions by receiver base type and name,
// package-agnostic — fixture packages modelling the protocol with their
// own types participate in the same rules. It is the one name matcher:
// rule scopes and the effect table use it.
// Recv "" matches package-level functions only, "*" any receiver,
// anything else that receiver exactly; a trailing "*" on Name matches a
// prefix.
type ScopeSpec struct {
	Recv string
	Name string
}

// Matches reports whether the spec selects the function.
func (s ScopeSpec) Matches(fn *types.Func) bool {
	if pre, ok := strings.CutSuffix(s.Name, "*"); ok {
		if !strings.HasPrefix(fn.Name(), pre) {
			return false
		}
	} else if fn.Name() != s.Name {
		return false
	}
	return s.Recv == "*" || s.Recv == recvBase(fn)
}

func (s ScopeSpec) String() string {
	switch s.Recv {
	case "*":
		return "(any)." + s.Name
	case "":
		return s.Name
	default:
		return "(" + s.Recv + ")." + s.Name
	}
}

// Rule is one declarative effect-ordering rule.
type Rule struct {
	// Name is the stable identifier used in findings and -explain.
	Name string
	// Analyzer is the analyzer that owns the rule (durcheck or errflow).
	Analyzer string
	Kind     RuleKind
	// A, B, C are the effect sets the kind's template quantifies over
	// (which of them are used depends on the kind).
	A, B, C EffectSet
	// Scope limits the rule to matching functions; empty means every
	// module function.
	Scope []ScopeSpec
	// Doc states the invariant in prose.
	Doc string
	// Step maps the rule to the DESIGN.md §7e protocol step it encodes.
	Step string
	// Witness describes what a violation's witness chain points at.
	Witness string
}

// Rules returns every durability rule in evaluation order.
func Rules() []*Rule {
	return []*Rule{
		{
			Name:     "commit-before-writeback",
			Analyzer: "durcheck",
			Kind:     RulePrecedes,
			A:        effects(EffCommit),
			B:        effects(EffWriteBack),
			Scope:    []ScopeSpec{{"*", "commitUpdate"}},
			Doc: "inside commitUpdate, no buffer-pool write-back may happen before the WAL " +
				"commit point; a crash after an early write-back would leave page-file state " +
				"the log cannot redo or undo",
			Step: "§7e step 2 before step 3: AppendBatch's commit meta-write precedes pool.Put/FlushDirty",
			Witness: "the write-back call that is reachable before any Commit effect, with the " +
				"call chain to the pool write it performs",
		},
		{
			Name:     "commit-before-catalog",
			Analyzer: "durcheck",
			Kind:     RulePrecedes,
			A:        effects(EffCommit),
			B:        effects(EffMetaWrite),
			Scope:    []ScopeSpec{{"*", "commitUpdate"}},
			Doc: "inside commitUpdate, the page-file catalog (tree meta) may only be published " +
				"after the WAL commit point; an earlier publish could expose a root the log " +
				"cannot reconstruct",
			Step:    "§7e step 2 before step 4: AppendBatch's commit meta-write precedes dm.WriteMeta",
			Witness: "the catalog-publish call reachable before any Commit effect",
		},
		{
			Name:     "commit-before-checkpoint",
			Analyzer: "durcheck",
			Kind:     RulePrecedes,
			A:        effects(EffCommit),
			B:        effects(EffCheckpoint),
			Scope:    []ScopeSpec{{"*", "commitUpdate"}},
			Doc: "inside commitUpdate, the WAL may only be checkpointed after the batch's commit " +
				"point; truncating first would discard the only redo copy of the update",
			Step:    "§7e step 2 before step 5: AppendBatch's commit meta-write precedes wal.Checkpoint",
			Witness: "the checkpoint call reachable before any Commit effect",
		},
		{
			Name:     "checkpoint-after-sync",
			Analyzer: "durcheck",
			Kind:     RuleSeparated,
			A:        effects(EffPageWrite, EffWriteBack, EffMetaWrite),
			B:        effects(EffSync),
			C:        effects(EffCheckpoint),
			Scope:    []ScopeSpec{{"*", "commitUpdate"}},
			Doc: "inside commitUpdate, the WAL may only be truncated once every page-file write " +
				"since the last sync is durable; checkpointing with unsynced writes discards " +
				"the redo copy while the page file can still lose them",
			Step:    "§7e step 5: syncManager(dm) precedes wal.Checkpoint",
			Witness: "the checkpoint call, plus the page-file write not yet covered by a Sync",
		},
		{
			Name:     "writeback-pages-only",
			Analyzer: "durcheck",
			Kind:     RuleNever,
			A:        effects(EffMetaWrite, EffLogAppend, EffCommit, EffCheckpoint),
			Scope: []ScopeSpec{
				{"*", "FlushDirty"}, {"*", "flushPage"}, {"*", "makeRoom"},
				{"Pool", "Put"},
			},
			Doc: "pool write-back paths move data pages only; they must never publish a catalog, " +
				"append to the log, or checkpoint — eviction happens at arbitrary points where " +
				"none of those are legal",
			Step:    "§7e layering: the pool sits below the commit protocol and cannot invoke it",
			Witness: "the forbidden effect inside a write-back path, with its call chain",
		},
		{
			Name:     "no-post-commit-error-return",
			Analyzer: "errflow",
			Kind:     RuleErrFlow,
			A:        effects(EffSync, EffCheckpoint),
			Doc: "once a path has emitted Commit, an error produced by a later checkpoint-stage " +
				"effect (Sync, Checkpoint) must not be returned as the operation's error — the " +
				"update IS durable; such errors flow to the sticky CheckpointErr/obs-counter " +
				"pattern instead (the second PR 7 review bug)",
			Step: "§7e step 5 failure mode: checkpoint-stage errors poison the checkpoint, not the update",
			Witness: "the return statement after the commit point whose error originates from a " +
				"checkpoint-stage effect call",
		},
	}
}

// RuleByName resolves a rule identifier, for -explain.
func RuleByName(name string) *Rule {
	for _, r := range Rules() {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// ruleViolation is one rule violation before rendering: the violated
// rule, the anchoring event, and an optional related event (e.g. the
// unsynced write a publish exposes).
type ruleViolation struct {
	rule    *Rule
	ev      *EffEvent
	related *EffEvent
}

// Finding renders the violation with its interprocedural witness chain.
func (v ruleViolation) Finding() Finding {
	var sb strings.Builder
	fmt.Fprintf(&sb, "rule %s: %s in %s", v.rule.Name, violationPhrase(v.rule, v.ev), v.ev.Fn)
	fmt.Fprintf(&sb, "; witness: %s", strings.Join(EventChain(v.ev), "; "))
	if v.related != nil {
		fmt.Fprintf(&sb, "; paired with: %s", strings.Join(EventChain(v.related), "; "))
	}
	return Finding{
		Pos:      v.ev.Fn.Pkg.Fset.Position(v.ev.Pos),
		Analyzer: v.rule.Analyzer,
		Message:  sb.String(),
	}
}

// violationPhrase words the defect for the rule kind.
func violationPhrase(r *Rule, ev *EffEvent) string {
	switch r.Kind {
	case RulePrecedes:
		return fmt.Sprintf("%s effect reachable before any %s", ev.Eff, r.A)
	case RuleSeparated:
		return fmt.Sprintf("%s effect with a preceding %s not separated by %s", ev.Eff, r.A, r.B)
	case RuleNever:
		return fmt.Sprintf("forbidden %s effect", ev.Eff)
	}
	return "effect-ordering violation"
}

// inScope reports whether a rule applies to the function.
func (r *Rule) inScope(fn *types.Func) bool {
	if len(r.Scope) == 0 {
		return true
	}
	for _, s := range r.Scope {
		if s.Matches(fn) {
			return true
		}
	}
	return false
}

// evalRule evaluates one ordering rule over one function's body traces:
// one witness per violating trace, or per unseparated pair for
// RuleSeparated.
func evalRule(r *Rule, e *Effects, n *FuncNode) []ruleViolation {
	var out []ruleViolation
	for _, t := range e.BodyTraces(n) {
		if t.Approx {
			continue
		}
		var pending *EffEvent // RuleSeparated: the A not yet separated
		seenA := false        // RulePrecedes
	events:
		for _, ev := range t.Events {
			switch {
			case r.Kind == RulePrecedes && r.A.Has(ev.Eff):
				seenA = true
			case r.Kind == RulePrecedes && r.B.Has(ev.Eff) && !seenA,
				r.Kind == RuleNever && r.A.Has(ev.Eff):
				out = append(out, ruleViolation{r, ev, nil})
				break events
			case r.Kind != RuleSeparated:
			case r.B.Has(ev.Eff):
				pending = nil
			case r.A.Has(ev.Eff):
				if pending == nil {
					pending = ev
				}
			case r.C.Has(ev.Eff) && pending != nil:
				out = append(out, ruleViolation{r, ev, pending})
				pending = nil
			}
		}
	}
	return out
}

// dedupViolations collapses duplicate reports of one underlying defect:
// module-wide rules re-observe a callee's violation from every caller
// that composes its traces, so violations are keyed by (rule, innermost
// event position) and the report with the shortest witness chain — the
// one closest to the defect — survives. Repeat sightings across a single
// function's forked traces collapse the same way.
type violationKey struct {
	rule string
	pos  token.Position
}

func chainDepth(ev *EffEvent) int {
	d := 0
	for ; ev != nil; ev = ev.Inner {
		d++
	}
	return d
}

func dedupViolations(vs []ruleViolation) []Finding {
	best := make(map[violationKey]int) // key -> index into vs
	var order []violationKey
	for i, v := range vs {
		inner := v.ev.Innermost()
		key := violationKey{v.rule.Name, inner.Fn.Pkg.Fset.Position(inner.Pos)}
		if j, ok := best[key]; !ok {
			best[key] = i
			order = append(order, key)
		} else if chainDepth(v.ev) < chainDepth(vs[j].ev) {
			best[key] = i
		}
	}
	var out []Finding
	for _, key := range order {
		out = append(out, vs[best[key]].Finding())
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return out
}

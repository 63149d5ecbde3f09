package analysis

// durcheck verifies the WAL commit protocol statically: it evaluates
// every effect-ordering rule (rules.go) against the interprocedural
// effect traces (effects.go) of each in-scope function: the
// commit-before-* family and checkpoint-after-sync pin commitUpdate's
// step order, sync-before-publish catches a publish that goes around
// WriteMeta's sync, writeback-pages-only keeps the pool below the
// protocol. Each rule is registered because the kill matrix records a
// fault only it catches (DESIGN.md §7a).

// checkDur runs the durcheck-owned rules module-wide.
func checkDur(m *Module) []Finding {
	e := m.Effects()
	var vs []ruleViolation
	for _, r := range Rules() {
		if r.Analyzer != "durcheck" {
			continue
		}
		for _, n := range m.Graph.Nodes() {
			if n.Decl.Body == nil || !r.inScope(n.Fn) {
				continue
			}
			if !durTriggered(r, e, n) {
				continue
			}
			vs = append(vs, evalRule(r, e, n)...)
		}
	}
	return dedupViolations(vs)
}

// durTriggered prefilters by the cheap transitive effect set: a function
// that can never perform the rule's triggering effect cannot violate it,
// so its traces are never materialized. Effect-table functions are
// always checked — their set is the contract, which can differ from what
// their body actually does (checking that is the point).
func durTriggered(r *Rule, e *Effects, n *FuncNode) bool {
	if effectEntry(n.Fn) != nil {
		return true
	}
	s := e.EffectSet(n)
	switch r.Kind {
	case RulePrecedes:
		return s&r.B != 0
	case RuleSeparated:
		return s&r.C != 0
	case RuleNever:
		return s&r.A != 0
	}
	return true
}

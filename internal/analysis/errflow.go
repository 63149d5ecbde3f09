package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
)

// errflow checks commit-path error discipline (the no-post-commit-
// error-return rule): once a function's body has passed the WAL commit
// point, the update is durable, so an error produced by a later
// checkpoint-stage effect (Sync, Checkpoint) must not be surfaced as the
// operation's error — it flows to the sticky CheckpointErr/obs-counter
// pattern instead. Returning it anyway makes a durably committed update
// look failed, which is exactly the commitUpdate bug PR 7's review
// caught.
//
// "After the commit point" is path-sensitive: a return statement is in
// scope when an effect trace reaching it (the path walker's trace
// lattice, flow.go) has passed a Commit effect. The flagged errors are
// filtered by ORIGIN — only errors that provably come from a call whose
// entire effect set is checkpoint-stage ({Sync}, {Checkpoint}, or both)
// are reported, so pre-commit error plumbing (AppendBatch, Put,
// FlushDirty, WriteMeta) never trips it.

// checkErrFlow runs errflow over every function that commits.
func checkErrFlow(m *Module) []Finding {
	r := RuleByName("no-post-commit-error-return")
	e := m.Effects()
	var out []Finding
	for _, n := range m.Graph.Nodes() {
		if n.Decl.Body == nil || effectEntry(n.Fn) != nil {
			continue
		}
		out = append(out, errFlowFunc(r, e, n)...)
	}
	return out
}

// errFlowFunc checks one function body.
func errFlowFunc(r *Rule, e *Effects, n *FuncNode) []Finding {
	if !n.eff.Has(EffCommit) {
		return nil // a function that never commits has no post-commit region
	}

	// Error origins: the last call assigned to each variable.
	assigns := localAssignments(n.Pkg.Info, n.Decl.Body)

	// checkpointStage reports whether an effect set marks a value as
	// coming from a checkpoint-stage call only.
	checkpointStage := func(s EffectSet) bool { return s != 0 && s&^r.A == 0 }

	// exprOrigin classifies a returned expression's error origin.
	var exprOrigin func(ex ast.Expr) (string, EffectSet, bool)
	exprOrigin = func(ex ast.Expr) (string, EffectSet, bool) {
		switch x := ast.Unparen(ex).(type) {
		case *ast.Ident:
			var eff EffectSet
			for _, rhs := range assigns[n.Pkg.Info.Uses[x]] {
				if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok && n.SiteAt(call) != nil {
					eff = siteEffects(n.SiteAt(call))
				}
			}
			if checkpointStage(eff) {
				return "error from " + x.Name, eff, true
			}
		case *ast.CallExpr:
			if c := n.SiteAt(x); c != nil {
				if eff := siteEffects(c); checkpointStage(eff) {
					return "error from " + c.Desc, eff, true
				}
			}
			// Wrapped: fmt.Errorf("...: %w", err) and friends forward
			// whatever origin their arguments carry.
			for _, a := range x.Args {
				if what, eff, ok := exprOrigin(a); ok {
					return what + " (wrapped)", eff, true
				}
			}
		}
		return "", 0, false
	}

	var out []Finding
	reported := make(map[*ast.ReturnStmt]bool)
	e.walk(n, n.Decl.Body, func(ret *ast.ReturnStmt, traces []EffTrace) {
		if reported[ret] || len(ret.Results) == 0 {
			return
		}
		commit := firstCommit(traces)
		last := ret.Results[len(ret.Results)-1]
		if t := n.Pkg.Info.TypeOf(last); commit == nil || t == nil || !types.Identical(t, errType) {
			return
		}
		what, eff, ok := exprOrigin(last)
		if !ok {
			return
		}
		reported[ret] = true
		loc := n.Pkg.Fset.Position(commit.Pos)
		out = append(out, Finding{
			Pos:      n.Pkg.Fset.Position(ret.Pos()),
			Analyzer: r.Analyzer,
			Message: fmt.Sprintf(
				"rule %s: %s (effects %s) returned as the operation error after the commit point "+
					"(%s at %s:%d) in %s; checkpoint-stage failures must go to the sticky "+
					"CheckpointErr/observability path, the committed update succeeded",
				r.Name, what, eff, commit.What, filepath.Base(loc.Filename), loc.Line, n),
		})
	})
	return out
}

// firstCommit returns the earliest-positioned Commit event on any of the
// traces, or nil when no path has committed.
func firstCommit(traces []EffTrace) *EffEvent {
	var first *EffEvent
	for _, t := range traces {
		for _, ev := range t.Events {
			if ev.Eff == EffCommit && (first == nil || ev.Pos < first.Pos) {
				first = ev
			}
		}
	}
	return first
}

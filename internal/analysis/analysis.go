// Package analysis implements rtreelint, the project-specific static
// analysis layer of the repository. It loads the module with go/parser and
// go/types (standard library only — no external analysis framework) and
// runs analyzers that encode correctness rules this codebase depends on
// but that go vet cannot know about. One looks at one package at a time
// (errcheck, at the packages Analyzers lists); the rest read the whole
// module through two engines. Across calls, one callees-first pass over
// the call graph's SCCs (facts.go) computes each function's facts, effect
// set and SCC (sharecheck and the others read these). Within a body, one
// path walker (flow.go) carries either of two lattices: must-held lock
// sets (sharecheck, atomiccheck) or ordered effect traces (durcheck,
// errflow).
// `rtreelint -list` prints each analyzer with its one-line contract.
//
// Which analyzers exist is decided by evidence, not by what was once
// worth writing: the kill matrix (killmatrix_test.go, DESIGN.md §7a)
// seeds faults into the real module, and an analyzer stays registered
// only while some fault is caught by it and by nothing else a plain
// `go vet ./... && go test ./...` runs.
//
// Findings are suppressed by an explicit annotation on the offending line
// (or the line directly above):
//
//	//lint:allow errcheck best effort: the process is exiting anyway
//
// The annotation names one analyzer (or a comma-separated list, or "all");
// everything after the names is free-form justification. Keeping the
// allowlist in the source, next to the code it excuses, is the point:
// every intentional exception is visible in review and disappears when the
// code it excuses does.
//
// To add a new analyzer: write a `func checkFoo(pkg *Package) []Finding`
// over pkg.Files/pkg.Info, wrap it in an Analyzer literal with the target
// packages it applies to, and append it to the slice in Analyzers. Tests
// in this package typecheck small fixture sources with seeded violations
// and assert on the findings; add at least two positive and one negative
// fixture for the new analyzer.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Finding is one analyzer diagnostic.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the finding as "file:line:col: analyzer: message".
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named check over a typechecked package.
type Analyzer struct {
	// Name is the short identifier used in findings and annotations.
	Name string
	// Doc is a one-line description shown by rtreelint's analyzer listing.
	Doc string
	// Targets restricts the analyzer to matching import paths. An entry
	// matches exactly, or matches a whole subtree when it ends in "/...".
	// An empty list applies the analyzer everywhere.
	Targets []string
	// Check reports findings for one package. Suppression annotations are
	// applied by the runner, not by Check.
	Check func(pkg *Package) []Finding
	// CheckModule reports findings over the whole module at once; set it
	// instead of Check for flow-aware analyzers that need the call graph
	// and cross-package facts (Targets does not apply: the call graph is
	// global, findings land wherever the evidence is).
	CheckModule func(m *Module) []Finding
}

// AppliesTo reports whether the analyzer targets the given import path.
func (a *Analyzer) AppliesTo(importPath string) bool {
	if len(a.Targets) == 0 {
		return true
	}
	for _, t := range a.Targets {
		if sub, ok := strings.CutSuffix(t, "/..."); ok {
			if importPath == sub || strings.HasPrefix(importPath, sub+"/") {
				return true
			}
		} else if importPath == t {
			return true
		}
	}
	return false
}

// Analyzers returns every analyzer in the order rtreelint runs them.
// Target paths are spelled relative to the module path of this repository.
func Analyzers() []*Analyzer {
	const mod = "rtreebuf"
	return []*Analyzer{
		{
			Name: "errcheck",
			Doc:  "silently discarded error results (assign to _ or handle)",
			Targets: []string{
				mod + "/internal/storage",
				mod + "/internal/buffer",
				mod + "/internal/obs",
				mod + "/internal/datagen",
				mod + "/cmd/...",
			},
			Check: checkErrCheck,
		},
		{
			Name:        "sharecheck",
			Doc:         "variable captured by a goroutine mutated on both sides of the spawn without a guard",
			CheckModule: checkShare,
		},
		{
			Name:        "atomiccheck",
			Doc:         "field accessed both atomically and plainly with no lock dominating the atomic sites",
			CheckModule: checkAtomic,
		},
		{
			Name:        "durcheck",
			Doc:         "WAL commit-protocol effect ordering violated (see rtreelint -explain <rule>)",
			CheckModule: checkDur,
		},
		{
			Name:        "errflow",
			Doc:         "checkpoint-stage error returned as the operation error after the commit point",
			CheckModule: checkErrFlow,
		},
	}
}

// Run applies every analyzer to every package it targets, drops findings
// suppressed by lint:allow annotations, and returns the rest ordered by
// file, line, and column.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var out []Finding
	var mod *Module
	var byFile map[string]*Package
	for _, a := range analyzers {
		if a.CheckModule == nil {
			continue
		}
		if mod == nil {
			mod = NewModule(pkgs)
			byFile = make(map[string]*Package)
			for _, pkg := range pkgs {
				for _, f := range pkg.Files {
					byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
				}
			}
		}
		for _, f := range a.CheckModule(mod) {
			if p := byFile[f.Pos.Filename]; p == nil || !p.allowed(f.Analyzer, f.Pos) {
				out = append(out, f)
			}
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Check == nil || !a.AppliesTo(pkg.ImportPath) {
				continue
			}
			for _, f := range a.Check(pkg) {
				if !pkg.allowed(f.Analyzer, f.Pos) {
					out = append(out, f)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

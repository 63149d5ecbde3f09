// Package analysis implements rtreelint, the project-specific static
// analysis layer of the repository. It loads the module with go/parser and
// go/types (standard library only — no external analysis framework) and
// runs analyzers that encode correctness rules this codebase depends on
// but that go vet cannot know about. Every analyzer reads the whole
// module through two engines. Across calls, one callees-first pass over
// the call graph's SCCs (facts.go) computes each function's facts.
// Within a body, one path walker (flow.go) carries must-held lock sets.
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
//	//lint:allow sharecheck read only after Close joins every worker
//
// The annotation names one analyzer (or a comma-separated list, or "all");
// everything after the names is free-form justification. Keeping the
// allowlist in the source, next to the code it excuses, is the point:
// every intentional exception is visible in review and disappears when the
// code it excuses does.
//
// To add a new analyzer: write a `func checkFoo(m *Module) []Finding`
// over m.Graph, wrap it in an Analyzer literal, and append it to the
// slice in Analyzers. Tests in
// this package typecheck small fixture modules with seeded violations
// and assert on the findings; add at least two positive and one negative
// fixture for the new analyzer, and two kill-matrix mutants
// (killmatrix_catalogue_test.go) of which it must kill one alone.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
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

// Analyzer is one named check over the whole module.
type Analyzer struct {
	// Name is the short identifier used in findings and annotations.
	Name string
	// Doc is a one-line description shown by rtreelint's analyzer listing.
	Doc string
	// Check reports findings over the whole module at once: every
	// analyzer reads the call graph and cross-package facts, so findings
	// land wherever the evidence is. Suppression annotations are applied
	// by Run, not by Check.
	Check func(m *Module) []Finding
}

// Analyzers returns every analyzer in the order rtreelint runs them.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		{
			Name:  "sharecheck",
			Doc:   "variable captured by a goroutine mutated on both sides of the spawn without a guard",
			Check: checkShare,
		},
	}
}

// Run applies every analyzer to the module the packages make up, drops
// findings suppressed by lint:allow annotations, and returns the rest
// ordered by file, line, and column.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	mod := NewModule(pkgs)
	byFile := make(map[string]*Package)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			byFile[pkg.Fset.Position(f.Pos()).Filename] = pkg
		}
	}
	var out []Finding
	for _, a := range analyzers {
		for _, f := range a.Check(mod) {
			if p := byFile[f.Pos.Filename]; p == nil || !p.allowed(f.Analyzer, f.Pos) {
				out = append(out, f)
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

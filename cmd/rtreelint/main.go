// Command rtreelint runs the repository's project-specific static
// analyzers (internal/analysis) over the module and exits 1 on any
// finding, 2 when it cannot run (bad flag, unknown analyzer, no module).
// It is stdlib-only and needs no tools beyond the Go toolchain:
//
//	go run ./cmd/rtreelint ./...
//
// Findings print as "file:line:col: analyzer: message". Intentional
// exceptions are annotated in the source with //lint:allow <analyzer>;
// there is no other way to park a finding, so the linter always enforces.
//
// Flags:
//
//	-root dir        module root to analyze (default: nearest go.mod upward)
//	-list            list the analyzers and their target packages, then exit
//	-only names      run only the named analyzers (comma-separated)
//	-skip names      run all but the named analyzers (comma-separated)
//	-json            emit findings as a JSON array on stdout
//	-sarif file      also write findings as SARIF 2.1.0 (GitHub code scanning)
//	-facts name      dump the call-graph facts and effect traces for matching
//	                 functions, then exit
//	                 (name forms: "Get", "(*Pool).Get", "buffer.(*Pool).Get")
//	-explain rule    print a durability rule's definition, the DESIGN.md §7e
//	                 protocol step it encodes, and its witness format, then
//	                 exit (unknown rule names exit 2, matching -only)
//
// Unknown analyzer names in -only/-skip are an error (exit 2): a typo must
// not silently disable a check.
//
// The package patterns on the command line are accepted for familiarity
// ("./...") but the whole module is always loaded; per-package analyzers
// restrict themselves to their declared targets, and the module-wide
// analyzers (marked in -list) see everything.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rtreebuf/internal/analysis"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it parses args, writes findings to stdout and
// diagnostics to stderr, and returns the exit code (0 clean, 1 findings,
// 2 could not run).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rtreelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", "", "module root to analyze (default: nearest go.mod upward from the working directory)")
	list := fs.Bool("list", false, "list analyzers and exit")
	only := fs.String("only", "", "run only these `analyzers` (comma-separated)")
	skip := fs.String("skip", "", "run all but these `analyzers` (comma-separated)")
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout")
	sarifPath := fs.String("sarif", "", "also write findings as SARIF 2.1.0 to `file`")
	factsOf := fs.String("facts", "", "dump call-graph facts and effect traces for functions matching `name` and exit")
	explainOf := fs.String("explain", "", "explain the durability `rule` (definition, protocol step, witness format) and exit")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		printf(stderr, "rtreelint: %v\n", err)
		return 2
	}

	if *explainOf != "" {
		text, err := explainRule(*explainOf)
		if err != nil {
			return fail(err)
		}
		printf(stdout, "%s", text)
		return 0
	}

	analyzers, err := selectAnalyzers(analysis.Analyzers(), *only, *skip)
	if err != nil {
		return fail(err)
	}
	if *list {
		width := 0
		for _, a := range analyzers {
			width = max(width, len(a.Name))
		}
		indent := strings.Repeat(" ", width+1)
		for _, a := range analyzers {
			printf(stdout, "%-*s %s\n", width, a.Name, a.Doc)
			if a.CheckModule != nil {
				printf(stdout, "%smodule-wide (call-graph facts)\n", indent)
			}
			for _, t := range a.Targets {
				printf(stdout, "%starget %s\n", indent, t)
			}
		}
		return 0
	}

	dir := *root
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return fail(err)
		}
		dir, err = analysis.FindModuleRoot(wd)
		if err != nil {
			return fail(err)
		}
	}

	pkgs, err := analysis.LoadModule(dir)
	if err != nil {
		return fail(err)
	}

	if *factsOf != "" {
		text, err := dumpFacts(pkgs, *factsOf)
		if err != nil {
			return fail(err)
		}
		printf(stdout, "%s", text)
		return 0
	}

	findings := analysis.Run(pkgs, analyzers)
	if *sarifPath != "" {
		if err := writeSARIFFile(*sarifPath, dir, analyzers, findings); err != nil {
			return fail(err)
		}
	}
	if *jsonOut {
		if err := printJSON(stdout, findings); err != nil {
			return fail(err)
		}
	} else {
		for _, f := range findings {
			printf(stdout, "%s\n", relativize(f))
		}
	}
	if len(findings) > 0 {
		printf(stderr, "rtreelint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// printf writes best-effort: a stream that cannot be written to leaves no
// better place to report the failure, and the exit status carries the
// verdict regardless.
func printf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// selectAnalyzers applies the -only/-skip filters. An unknown name is an
// error rather than a no-op, so a typo cannot silently disable a check.
func selectAnalyzers(all []*analysis.Analyzer, only, skip string) ([]*analysis.Analyzer, error) {
	if only != "" && skip != "" {
		return nil, fmt.Errorf("-only and -skip are mutually exclusive")
	}
	known := make(map[string]bool, len(all))
	for _, a := range all {
		known[a.Name] = true
	}
	parse := func(flagName, list string) (map[string]bool, error) {
		names := make(map[string]bool)
		for _, name := range strings.Split(list, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if !known[name] {
				return nil, fmt.Errorf("%s: unknown analyzer %q (run -list for the set)", flagName, name)
			}
			names[name] = true
		}
		return names, nil
	}
	switch {
	case only != "":
		names, err := parse("-only", only)
		if err != nil {
			return nil, err
		}
		var out []*analysis.Analyzer
		for _, a := range all {
			if names[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	case skip != "":
		names, err := parse("-skip", skip)
		if err != nil {
			return nil, err
		}
		var out []*analysis.Analyzer
		for _, a := range all {
			if !names[a.Name] {
				out = append(out, a)
			}
		}
		return out, nil
	}
	return all, nil
}

// writeSARIFFile writes the findings as a SARIF log for code-scanning
// upload.
func writeSARIFFile(path, root string, analyzers []*analysis.Analyzer, findings []analysis.Finding) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := analysis.WriteSARIF(f, root, analyzers, findings); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// jsonFinding is the machine-readable finding shape for -json consumers
// (CI artifact tooling, editors).
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(w io.Writer, findings []analysis.Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// explainRule prints one durability rule's full definition: its temporal
// shape, the effect sets it quantifies over, the functions it scopes to,
// the DESIGN.md §7e protocol step it encodes, and what a violation's
// witness chain points at. Unknown names are an error (exit 2), matching
// -only's contract that a typo must not read as "no such problem".
func explainRule(name string) (string, error) {
	r := analysis.RuleByName(name)
	if r == nil {
		var known []string
		for _, r := range analysis.Rules() {
			known = append(known, r.Name)
		}
		return "", fmt.Errorf("unknown rule %q (rules: %s)", name, strings.Join(known, ", "))
	}
	var w strings.Builder
	fmt.Fprintf(&w, "rule %s (analyzer %s)\n", r.Name, r.Analyzer)
	fmt.Fprintf(&w, "  kind:    %s\n", r.Kind)
	fmt.Fprintf(&w, "  A:       %s\n", r.A)
	if r.B != 0 {
		fmt.Fprintf(&w, "  B:       %s\n", r.B)
	}
	if r.C != 0 {
		fmt.Fprintf(&w, "  C:       %s\n", r.C)
	}
	if len(r.Scope) == 0 {
		fmt.Fprintf(&w, "  scope:   every module function\n")
	} else {
		var specs []string
		for _, s := range r.Scope {
			specs = append(specs, s.String())
		}
		fmt.Fprintf(&w, "  scope:   %s\n", strings.Join(specs, ", "))
	}
	fmt.Fprintf(&w, "  invariant: %s\n", r.Doc)
	fmt.Fprintf(&w, "  protocol:  %s\n", r.Step)
	fmt.Fprintf(&w, "  witness:   %s\n", r.Witness)
	return w.String(), nil
}

// dumpFacts prints the fact store's view of every function matching name:
// the transitive fact set, one witness chain per fact, the function's own
// allocation sites, and its effect summary and body traces. This is the
// debugging lens for "why does lockcheck think this callee blocks?" and
// "what order does durcheck believe this function writes in?".
func dumpFacts(pkgs []*analysis.Package, name string) (string, error) {
	m := analysis.NewModule(pkgs)
	graph := m.Graph
	effects := m.Effects()
	nodes := graph.ResolveName(name)
	if len(nodes) == 0 {
		return "", fmt.Errorf("no function matches %q", name)
	}
	width := 0 // the fact label column fits the longest label
	for _, fact := range (^analysis.FactSet(0)).Facts() {
		width = max(width, len(fact.String())+1)
	}
	var w strings.Builder
	for _, n := range nodes {
		pos := n.Pkg.Fset.Position(n.Decl.Pos())
		fmt.Fprintf(&w, "%s\t%s:%d\n", n, relPath(pos.Filename), pos.Line)
		fmt.Fprintf(&w, "  facts: %s\n", n.Facts)
		for _, fact := range n.Facts.Facts() {
			for i, hop := range graph.FactChain(n, fact) {
				if i == 0 {
					fmt.Fprintf(&w, "  %-*s %s\n", width, fact.String()+":", hop)
				} else {
					fmt.Fprintf(&w, "  %-*s   -> %s\n", width, "", hop)
				}
			}
		}
		for _, a := range n.Allocs {
			apos := n.Pkg.Fset.Position(a.Pos)
			fmt.Fprintf(&w, "  alloc: %s at %s:%d\n", a.What, relPath(apos.Filename), apos.Line)
		}
		fmt.Fprintf(&w, "  effects: %s\n", effects.EffectSet(n))
		body := effects.BodyTraces(n)
		if sum := effects.Summary(n); !sameTraces(sum, body) {
			// Effect-table function: what callers compose (the contract)
			// differs from what the body does (what the rules check).
			for _, tr := range sum {
				fmt.Fprintf(&w, "  contract: %s\n", tr)
			}
		}
		for _, tr := range body {
			fmt.Fprintf(&w, "  trace: %s\n", tr)
		}
	}
	return w.String(), nil
}

// sameTraces reports whether two trace slices render identically, used to
// suppress the contract line when it adds nothing over the body traces.
func sameTraces(a, b []analysis.EffTrace) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

// relativize shortens the finding's file path relative to the working
// directory when possible, keeping output stable for editors and CI logs.
func relativize(f analysis.Finding) string {
	f.Pos.Filename = relPath(f.Pos.Filename)
	return f.String()
}

func relPath(name string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, name); err == nil && !filepath.IsAbs(rel) {
			return rel
		}
	}
	return name
}

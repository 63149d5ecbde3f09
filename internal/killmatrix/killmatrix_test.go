package killmatrix

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The kill matrix records who kills each seeded fault. The catalogue
// (killmatrix_catalogue_test.go) seeds faults into a copy of the real
// module; the full run (killmatrix_run_test.go, build tag killmatrix)
// records, per mutant, which checkers kill it — go vet, the tier-1
// tests, and the same tests under -race where CI's Race step runs them —
// into testdata/killmatrix.golden. No analyzer is registered. One rule
// says when one may return:
//
//	an analyzer is added only with a mutant that it kills and that
//	nothing else kills: not go vet, and not a tier-1 test; a kill seen
//	only under -race is not a duplicate, because `go test ./...` does
//	not run it.
//
// Tier-1 checks only what is cheap: every anchor still applies to the
// working tree, and the golden lists exactly the catalogue.

// edit is one anchored text edit: old must occur exactly once in file.
type edit struct{ file, old, new string }

// mutant is one seeded fault.
type mutant struct {
	name string // row key in the golden
	aim  string // the retired analyzer (or durcheck:<rule>) the fault was written for
	what string // the fault, in one line
	rare bool   // sits on a branch tests rarely drive
	// benign marks an edit that changes no behaviour the check is about:
	// there is nothing to kill.
	benign bool
	edits  []edit   // applied together
	pkgs   []string // packages whose tests could notice, as go test patterns
}

// touchedDirs returns the package directories the mutant edits.
func (m mutant) touchedDirs() []string {
	var out []string
	for _, e := range m.edits {
		if d := filepath.ToSlash(filepath.Dir(e.file)); !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	return out
}

// racePkgs returns the named packages CI's Race step covers.
func (m mutant) racePkgs() []string {
	var out []string
	for _, p := range m.pkgs {
		switch p {
		case bufferPkg, storagePkg, simPkg, expPkg:
			out = append(out, p)
		}
	}
	return out
}

// matrixRow is one mutant's cells as the golden stores them.
type matrixRow struct {
	vet   string // vet passes that reported, "–" for none
	tests string // "pass", "flaky k/n" (k of n runs failed; not a kill), or "KILL <tests failing in every run>"
	race  string // the same, or "n/a": run only when tier-1 does not kill
}

func killed(cell string) bool { return strings.HasPrefix(cell, "KILL") }

// killCells is what two runs of the matrix must agree on: whether vet
// reported, and whether the tests killed. Which tests a kill names, and
// whether a surviving mutant saw a flaky run, may differ between runs.
func (r matrixRow) killCells() string {
	return fmt.Sprintf("vet: %s; tier-1 kill: %t; -race kill: %t", r.vet, killed(r.tests), killed(r.race))
}

// verdict names who kills the row of mutant m.
func (r matrixRow) verdict(m mutant) string {
	if m.benign {
		return "benign, unflagged"
	}
	var by []string
	if r.vet != "–" {
		by = append(by, "vet")
	}
	if killed(r.tests) {
		by = append(by, "tier-1")
	}
	switch {
	case len(by) > 0:
		return "no analyzer; " + strings.Join(by, "+")
	case killed(r.race):
		return "GAP (-race only)"
	}
	return "GAP"
}

func (r matrixRow) line(m mutant) string {
	aim := m.aim
	if m.rare {
		aim += " (rare branch)"
	}
	return fmt.Sprintf("| %s | %s | %s | %s | %s | %s | %s |",
		m.name, aim, m.what, r.vet, r.tests, r.race, r.verdict(m))
}

const (
	killMatrixHeader = "| mutant | aimed at | fault | go vet | tier-1 tests (3 runs) | -race | verdict |\n" +
		"|---|---|---|---|---|---|---|\n"
	killMatrixEvidenceMarker = "## evidence per mutant (not compared): failing runs, wall ms per checker"
)

// renderMatrix renders the golden's table and, per retired check, who
// kills each of its mutants now.
func renderMatrix(rows []matrixRow) string {
	var b strings.Builder
	b.WriteString(killMatrixHeader)
	for i, m := range catalogue {
		b.WriteString(rows[i].line(m))
		b.WriteByte('\n')
	}
	b.WriteString("\n## the rule, per registered check\nno analyzer registered\n")
	b.WriteString("\n## retired checks: their mutants and who kills each now\n")
	for i, m := range catalogue {
		fmt.Fprintf(&b, "%s: %s -> %s\n", m.aim, m.name, rows[i].verdict(m))
	}
	b.WriteByte('\n')
	return b.String()
}

// repoRoot is the module root above the test's working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test's directory")
		}
		dir = parent
	}
}

// TestKillMatrixAnchorsApply: a mutant whose anchor no longer applies
// exactly once to the working tree fails here, not in the nightly run.
func TestKillMatrixAnchorsApply(t *testing.T) {
	root := repoRoot(t)
	files := map[string]string{}
	names := map[string]bool{}
	for _, m := range catalogue {
		if names[m.name] {
			t.Errorf("duplicate mutant name %s", m.name)
		}
		names[m.name] = true
		if len(m.edits) == 0 || len(m.pkgs) == 0 || m.what == "" {
			t.Errorf("%s: a mutant needs edits, packages and a description", m.name)
		}
		for _, e := range m.edits {
			src, ok := files[e.file]
			if !ok {
				data, err := os.ReadFile(filepath.Join(root, e.file))
				if err != nil {
					t.Errorf("%s: %v", m.name, err)
					continue
				}
				src = string(data)
				files[e.file] = src
			}
			if n := strings.Count(src, e.old); n != 1 {
				t.Errorf("%s: anchor occurs %d times in %s, want exactly 1:\n%s", m.name, n, e.file, e.old)
			}
			if e.old == e.new {
				t.Errorf("%s: edit of %s changes nothing", m.name, e.file)
			}
		}
	}
}

// goldenRows parses the golden's table back into rows, in file order.
func goldenRows(t *testing.T) (names []string, rows []matrixRow) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "killmatrix.golden"))
	if err != nil {
		t.Fatal(err)
	}
	table, _, _ := strings.Cut(string(data), "\n## ")
	for _, line := range strings.Split(strings.TrimPrefix(table, killMatrixHeader), "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) != 7 {
			continue
		}
		names = append(names, cells[0])
		rows = append(rows, matrixRow{vet: cells[3], tests: cells[4], race: cells[5]})
	}
	return names, rows
}

// TestKillMatrixGoldenListsCatalogue: the golden holds exactly the
// catalogue's mutants, in order — a mutant added without a full run, or
// a row left behind by a deleted one, fails tier-1.
func TestKillMatrixGoldenListsCatalogue(t *testing.T) {
	got, _ := goldenRows(t)
	var want []string
	for _, m := range catalogue {
		want = append(want, m.name)
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("golden rows and catalogue differ; regenerate with the command in killmatrix_run_test.go\ngolden:    %v\ncatalogue: %v", got, want)
	}
}

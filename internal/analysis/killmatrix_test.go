package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// The kill matrix decides which analyzers rtreelint keeps. The catalogue
// (killmatrix_catalogue_test.go) seeds faults into a copy of the real
// module; the full run (killmatrix_run_test.go, build tag killmatrix)
// records, per mutant, which checkers kill it — every registered
// analyzer, go vet, the tier-1 tests, and the same tests under -race
// where CI's Race step runs them — into testdata/killmatrix.golden. One
// rule reads the table:
//
//	an analyzer stays iff some mutant is killed by it and by no other
//	analyzer, not by go vet, and not by a tier-1 test; a kill seen only
//	under -race is not a duplicate, because `go test ./...` does not
//	run it.
//
// Tier-1 checks only what is cheap: every anchor still applies to the
// working tree, the golden lists exactly the catalogue, every registered
// check has its two mutants, and every registered check still cites a
// unique-kill row — so an analyzer cannot outlive its evidence.

// edit is one anchored text edit: old must occur exactly once in file.
type edit struct{ file, old, new string }

// mutant is one seeded fault.
type mutant struct {
	name string // row key in the golden
	aim  string // the analyzer (or retired durcheck:<rule>) the fault is aimed at
	what string // the fault, in one line
	rare bool   // sits on a branch tests rarely drive
	// benign marks an edit that changes no behaviour the check is about:
	// there is nothing to kill, so an analyzer that reports is a false
	// alarm, and the row can earn nobody a unique kill.
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
	analyzers string // killer names, "–" for none
	vet       string // vet passes that reported, "–" for none
	tests     string // "pass", "flaky k/n" (k of n runs failed; not a kill), or "KILL <tests failing in every run>"
	race      string // the same, or "n/a": run only when tier-1 does not kill
}

func killed(cell string) bool { return strings.HasPrefix(cell, "KILL") }

// killCells is what two runs of the matrix must agree on: who reported,
// and whether the tests killed. Which tests a kill names, and whether a
// surviving mutant saw a flaky run, may differ between runs.
func (r matrixRow) killCells() string {
	return fmt.Sprintf("analyzers: %s; vet: %s; tier-1 kill: %t; -race kill: %t",
		r.analyzers, r.vet, killed(r.tests), killed(r.race))
}

func (r matrixRow) killers() []string {
	if r.analyzers == "–" {
		return nil
	}
	return strings.Fields(r.analyzers)
}

// verdict applies the rule to one row of mutant m.
func (r matrixRow) verdict(m mutant) string {
	killers := r.killers()
	if m.benign {
		if len(killers) > 0 {
			return "FALSE ALARM " + strings.Join(killers, " ")
		}
		return "benign, unflagged"
	}
	var dup []string
	if r.vet != "–" {
		dup = append(dup, "vet")
	}
	if killed(r.tests) {
		dup = append(dup, "tier-1")
	}
	switch {
	case len(killers) == 0 && len(dup) > 0:
		return "no analyzer; " + strings.Join(dup, "+")
	case len(killers) == 0 && killed(r.race):
		return "GAP (-race only)"
	case len(killers) == 0:
		return "GAP"
	case len(dup) > 0:
		return "dup: " + strings.Join(dup, "+")
	case len(killers) > 1:
		return "shared"
	}
	return "UNIQUE " + killers[0]
}

func (r matrixRow) line(m mutant) string {
	aim := m.aim
	if m.rare {
		aim += " (rare branch)"
	}
	return fmt.Sprintf("| %s | %s | %s | %s | %s | %s | %s | %s |",
		m.name, aim, m.what, r.analyzers, r.vet, r.tests, r.race, r.verdict(m))
}

const (
	killMatrixHeader = "| mutant | aimed at | fault | analyzers | go vet | tier-1 tests (3 runs) | -race | verdict |\n" +
		"|---|---|---|---|---|---|---|---|\n"
	killMatrixEvidenceMarker = "## evidence per mutant (not compared): findings, wall ms per checker"
)

// uniqueKills maps each check to the mutants it alone kills.
func uniqueKills(rows []matrixRow) map[string][]string {
	unique := map[string][]string{}
	for i, m := range catalogue {
		if v := rows[i].verdict(m); strings.HasPrefix(v, "UNIQUE ") {
			k := strings.TrimPrefix(v, "UNIQUE ")
			unique[k] = append(unique[k], m.name)
		}
	}
	return unique
}

// renderMatrix renders the golden's table, the rule's outcome for every
// registered check, and — for checks the rule has already retired, whose
// mutants stay in the catalogue — who kills each of their mutants now.
func renderMatrix(rows []matrixRow) string {
	var b strings.Builder
	b.WriteString(killMatrixHeader)
	for i, m := range catalogue {
		b.WriteString(rows[i].line(m))
		b.WriteByte('\n')
	}
	b.WriteString("\n## the rule, per registered check\n")
	unique := uniqueKills(rows)
	registered := map[string]bool{}
	for _, k := range registeredChecks() {
		registered[k] = true
		if at := unique[k]; len(at) > 0 {
			fmt.Fprintf(&b, "%s: stays, unique kill on %s\n", k, strings.Join(at, ", "))
		} else {
			fmt.Fprintf(&b, "%s: goes, no unique kill\n", k)
		}
	}
	b.WriteString("\n## retired checks: their mutants and who kills each now\n")
	for i, m := range catalogue {
		if !registered[m.aim] {
			fmt.Fprintf(&b, "%s: %s -> %s\n", m.aim, m.name, rows[i].verdict(m))
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// registeredChecks names what the rule is applied to: every analyzer.
func registeredChecks() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return out
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
		if len(cells) != 8 {
			continue
		}
		names = append(names, cells[0])
		rows = append(rows, matrixRow{analyzers: cells[3], vet: cells[4], tests: cells[5], race: cells[6]})
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

// TestKillMatrixCoversEveryCheck: every registered analyzer is aimed at
// by at least two mutants at distinct sites, one of them on a rarely
// driven branch.
func TestKillMatrixCoversEveryCheck(t *testing.T) {
	for _, k := range registeredChecks() {
		sites := map[string]bool{}
		rare := false
		for _, m := range catalogue {
			if m.aim == k {
				sites[m.edits[0].file+"\x00"+m.edits[0].old] = true
				rare = rare || m.rare
			}
		}
		if len(sites) < 2 {
			t.Errorf("%s: %d mutant site(s), want >= 2", k, len(sites))
		}
		if !rare {
			t.Errorf("%s: no mutant on a rarely driven branch", k)
		}
	}
}

// TestEveryRegisteredCheckHasAUniqueKill is the rule, enforced: an
// analyzer that is registered must own a row of the golden where it
// alone makes the kill.
func TestEveryRegisteredCheckHasAUniqueKill(t *testing.T) {
	names, rows := goldenRows(t)
	if len(names) != len(catalogue) {
		t.Skip("golden and catalogue differ; TestKillMatrixGoldenListsCatalogue reports it")
	}
	unique := uniqueKills(rows)
	for _, k := range registeredChecks() {
		if len(unique[k]) == 0 {
			t.Errorf("%s is registered but no golden row is its unique kill: delete it or find one", k)
		}
	}
}

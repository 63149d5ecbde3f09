//go:build killmatrix

package killmatrix

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// The full kill-matrix run (see killmatrix_test.go for the rule it feeds
// and killmatrix_catalogue_test.go for the mutants). One command
// regenerates the golden, about an hour on two cores:
//
//	go test -tags killmatrix -run 'TestKillMatrix$' -timeout 3h ./internal/killmatrix -update
//
// and the same command without -update (CI's nightly step) fails on any
// kill cell that differs from testdata/killmatrix.golden: whether go vet
// reported, and whether the tests killed. Test names, flaky runs and
// wall times are evidence, not compared.
// `-run 'TestKillMatrix$/(control|<mutant>)'` runs the control and a
// subset, and only prints the rows (a pattern that does not name the
// control skips it).

var update = flag.Bool("update", false, "rewrite testdata/killmatrix.golden")

const (
	testTimeout = 60 * time.Second // tier-1 budget per package binary; a timeout is a kill
	raceTimeout = 300 * time.Second
	testRuns    = 3 // a kill is the same test failing in testRuns of testRuns runs
)

func TestKillMatrix(t *testing.T) {
	root := repoRoot(t)
	work := t.TempDir()
	copyModule(t, root, work)
	if out, err := goCmd(work, 0, "build", "./..."); err != nil {
		t.Fatalf("go build of the unmutated copy: %v\n%s", err, out)
	}

	control := func(t *testing.T) {
		// A flaky run of the unmutated copy is the suites' own noise (the
		// timing tests on a shared box), which is why a kill needs every run.
		row, evidence := runCheckers(t, work, controlMutant())
		t.Logf("%+v\n%s", row, evidence)
		if row.vet != "–" || killed(row.tests) || killed(row.race) {
			t.Fatal("the unmutated copy is killed by a checker")
		}
	}
	if !t.Run("control", control) {
		t.Fatal("control failed; no mutant row would mean anything")
	}
	ran := 0
	rows := make([]matrixRow, len(catalogue))
	evidence := make([]string, len(catalogue))
	for i, m := range catalogue {
		t.Run(m.name, func(t *testing.T) {
			ran++
			restore := applyMutant(t, work, m)
			defer restore()
			if out, err := goCmd(work, 0, "build", "./..."); err != nil {
				t.Fatalf("mutant does not build (fix the catalogue): %v\n%s", err, out)
			}
			rows[i], evidence[i] = runCheckers(t, work, m)
			t.Logf("%s\n%s", rows[i].line(m), evidence[i])
		})
	}
	if ran != len(catalogue) || t.Failed() {
		return // a -run subset: rows were logged, the golden needs every mutant
	}

	path := filepath.Join(root, "internal", "killmatrix", "testdata", "killmatrix.golden")
	if *update {
		full := renderMatrix(rows) + killMatrixEvidenceMarker + "\n" + strings.Join(evidence, "\n") + "\n"
		if err := os.WriteFile(path, []byte(full), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	names, want := goldenRows(t)
	if len(names) != len(catalogue) {
		t.Fatalf("%s lists %d mutants, the catalogue %d: rerun with -update", path, len(names), len(catalogue))
	}
	for i, m := range catalogue {
		if got, want := rows[i].killCells(), want[i].killCells(); names[i] != m.name || got != want {
			t.Errorf("%s: kill cells differ from the golden's row %s (rerun with -update and review the diff)\n got: %s\nwant: %s",
				m.name, names[i], got, want)
		}
	}
}

// controlMutant is the empty edit against every package any mutant names,
// so the control exercises exactly the checkers the rows rely on.
func controlMutant() mutant {
	m := mutant{name: "control"}
	for _, c := range catalogue {
		m.pkgs = append(m.pkgs, c.pkgs...)
	}
	slices.Sort(m.pkgs)
	m.pkgs = slices.Compact(m.pkgs)
	return m
}

// copyModule copies the working tree's module files (no VCS data, no
// benchmark output) so mutants never touch the checkout.
func copyModule(t *testing.T, from, to string) {
	t.Helper()
	err := filepath.WalkDir(from, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(from, path)
		if d.IsDir() {
			if rel != "." && (strings.HasPrefix(d.Name(), ".") || rel == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(to, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(to, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// applyMutant applies every edit of m under root and returns the undo.
func applyMutant(t *testing.T, root string, m mutant) (restore func()) {
	t.Helper()
	saved := map[string][]byte{}
	for _, e := range m.edits {
		path := filepath.Join(root, e.file)
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := saved[path]; !ok {
			saved[path] = src
		}
		if n := strings.Count(string(src), e.old); n != 1 {
			t.Fatalf("%s: anchor occurs %d times in %s, want exactly 1:\n%s", m.name, n, e.file, e.old)
		}
		if err := os.WriteFile(path, []byte(strings.Replace(string(src), e.old, e.new, 1)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return func() {
		for path, src := range saved {
			if err := os.WriteFile(path, src, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// goCmd runs the go tool in dir. testTimeout is the -timeout the command
// was given, 0 for none: the go tool enforces it per test binary, and the
// outer bound derived from it only catches a wedged toolchain.
func goCmd(dir string, testTimeout time.Duration, args ...string) (string, error) {
	ctx := context.Background()
	if testTimeout != 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 4*testTimeout+2*time.Minute)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	return out.String(), err
}

// runCheckers records which checkers kill the module as it now stands
// under root, and the evidence: each failing test, what each checker
// cost.
func runCheckers(t *testing.T, root string, m mutant) (matrixRow, string) {
	t.Helper()
	var row matrixRow
	evidence := m.name + ":"

	// go vet on the packages the mutant touched.
	start := time.Now()
	var vetKills []string
	for _, dir := range m.touchedDirs() {
		if out, err := goCmd(root, 0, "vet", "./"+dir); err != nil {
			vetKills = append(vetKills, vetChecks(out)...)
		}
	}
	row.vet = joinOrDash(vetKills)
	cost := fmt.Sprintf("vet %d", time.Since(start).Milliseconds())

	// Tier-1 tests on the packages whose tests could notice.
	start = time.Now()
	var detail string
	row.tests, detail = repeatTests(root, testTimeout, false, append([]string{"test", "-count=1"}, m.pkgs...))
	evidence += detail
	cost += fmt.Sprintf(" | tier-1 %d", time.Since(start).Milliseconds())

	// The same packages where CI's Race step runs them — only when
	// tier-1 did not already kill: the column exists to show what
	// `go test ./...` alone misses. One passing run settles it.
	row.race = "n/a"
	if race := m.racePkgs(); len(race) > 0 && !killed(row.tests) {
		start = time.Now()
		row.race, detail = repeatTests(root, raceTimeout, true, append([]string{"test", "-race", "-count=1"}, race...))
		evidence += detail
		cost += fmt.Sprintf(" | race %d", time.Since(start).Milliseconds())
	}
	return row, evidence + "\n  wall ms: " + cost
}

// repeatTests runs one `go test` command (args plus -timeout) up to
// testRuns times and applies the kill rule: KILL iff every run failed and
// some one test (or a timeout) failed in all of them, or every run
// reported a data race, whichever test each race landed in; a mix is
// flaky and not a kill. With stopOnPass the first passing run ends it
// (nothing can be a kill then).
func repeatTests(root string, timeout time.Duration, stopOnPass bool, args []string) (cell, detail string) {
	args = slices.Insert(args, 1, "-timeout", timeout.String())
	var failed [][]string
	dataRace := true
	runs := 0
	for runs < testRuns {
		out, err := goCmd(root, timeout, args...)
		runs++
		if err == nil {
			if stopOnPass {
				break
			}
			continue
		}
		failed = append(failed, failingTests(out))
		dataRace = dataRace && strings.Contains(out, "WARNING: DATA RACE")
	}
	if len(failed) == 0 {
		return "pass", ""
	}
	detail = fmt.Sprintf("\n  failing runs of `go %s`: %v", strings.Join(args, " "), failed)
	if always := inEveryRun(failed); len(failed) == testRuns && (len(always) > 0 || dataRace) {
		if dataRace {
			always = append([]string{"DATA RACE"}, always...)
		}
		return "KILL " + strings.Join(always, " "), detail
	}
	return fmt.Sprintf("flaky %d/%d", len(failed), runs), detail
}

var (
	failRe     = regexp.MustCompile(`(?m)^--- FAIL: (\S+)`)
	pkgFailRe  = regexp.MustCompile(`(?m)^FAIL\s+(\S+)`)
	vetCheckRe = regexp.MustCompile(`(?m)^\S+\.go:\d+:\d+: (.*)$`)
)

// vetChecks names what go vet reported: "copylocks" for its lock-copy
// messages (vet does not print pass names), "vet" for anything else.
func vetChecks(out string) []string {
	var names []string
	for _, m := range vetCheckRe.FindAllStringSubmatch(out, -1) {
		name := "vet"
		if strings.Contains(m[1], "lock by value") || strings.Contains(m[1], "copies lock") {
			name = "copylocks"
		}
		if !slices.Contains(names, name) {
			names = append(names, name)
		}
	}
	if len(names) == 0 {
		names = []string{"vet"}
	}
	return names
}

// failingTests names what one `go test` run reported: top-level failed
// tests, "timeout" for a binary killed by -timeout, else the package.
func failingTests(out string) []string {
	var names []string
	for _, m := range failRe.FindAllStringSubmatch(out, -1) {
		names = append(names, m[1])
	}
	if strings.Contains(out, "panic: test timed out") {
		names = append(names, "timeout")
	}
	if len(names) == 0 {
		for _, m := range pkgFailRe.FindAllStringSubmatch(out, -1) {
			names = append(names, filepath.Base(m[1])+"(crashed)")
		}
	}
	slices.Sort(names)
	return slices.Compact(names)
}

// inEveryRun keeps the names reported by every run: the tests that make
// a kill reliable rather than one run's casualties.
func inEveryRun(runs [][]string) []string {
	count := map[string]int{}
	for _, r := range runs {
		for _, n := range r {
			count[n]++
		}
	}
	var out []string
	for n, c := range count {
		if c == len(runs) {
			out = append(out, n)
		}
	}
	slices.Sort(out)
	return out
}

func joinOrDash(names []string) string {
	if len(names) == 0 {
		return "–"
	}
	return strings.Join(names, " ")
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// tempModule writes a one-package module and returns its root.
func tempModule(t *testing.T, src string) string {
	t.Helper()
	root := t.TempDir()
	for name, data := range map[string]string{
		"go.mod":   "module lintme\n\ngo 1.22\n",
		"store.go": src,
	} {
		if err := os.WriteFile(filepath.Join(root, name), []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

const cleanSrc = `package lintme

import "sync"

type store struct {
	mu sync.Mutex
	n  int
}

func (s *store) bump() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	return s.n
}
`

// racySrc adds a goroutine that bumps a captured counter with no guard:
// a sharecheck finding.
const racySrc = cleanSrc + `
func count() int {
	n := 0
	go func() {
		n++
	}()
	return n
}
`

func lint(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestExitCodes pins the contract CI's lint job relies on: 0 clean, 1 on
// findings (one "file:line:col: analyzer: message" line each), 2 when the
// linter could not run — so a typo or a missing tree never reads as clean.
func TestExitCodes(t *testing.T) {
	clean, racy := tempModule(t, cleanSrc), tempModule(t, racySrc)

	if code, out, errs := lint("-root", clean); code != 0 || out != "" {
		t.Errorf("clean module: exit %d, stdout %q, stderr %q; want 0 and no findings", code, out, errs)
	}

	code, out, _ := lint("-root", racy)
	if code != 1 {
		t.Errorf("module with an unguarded shared counter: exit %d, want 1", code)
	}
	if line := regexp.MustCompile(`(?m)^\S*store\.go:\d+:\d+: sharecheck: `); !line.MatchString(out) {
		t.Errorf("finding line does not match file:line:col: analyzer: message:\n%s", out)
	}

	for _, args := range [][]string{
		{"-root", clean, "-only", "sharechek"},
		{"-root", clean, "-only", "errcheck"}, // retired: unknown like a typo
		{"-root", clean, "-skip", "nosuch"},
		{"-root", clean, "-only", "sharecheck", "-skip", "sharecheck"},
		{"-root", filepath.Join(clean, "missing")},
	} {
		if code, _, errs := lint(args...); code != 2 || errs == "" {
			t.Errorf("%v: exit %d, stderr %q; want 2 with a diagnostic", args, code, errs)
		}
	}
}

// TestListNamesTheSurvivors: -list is the registry, and the registry is
// what the kill matrix left (DESIGN §7a).
func TestListNamesTheSurvivors(t *testing.T) {
	code, out, _ := lint("-list")
	if code != 0 {
		t.Fatalf("-list: exit %d", code)
	}
	var got []string
	docAt := map[int][]string{} // doc column offset -> analyzers printed with it
	for _, line := range strings.Split(out, "\n") {
		if line != "" && !strings.HasPrefix(line, " ") {
			name := strings.Fields(line)[0]
			got = append(got, name)
			at := len(name) + len(line[len(name):]) - len(strings.TrimLeft(line[len(name):], " "))
			docAt[at] = append(docAt[at], name)
		}
	}
	want := survivors
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("-list names %v, want %v", got, want)
	}
	if len(docAt) != 1 {
		t.Errorf("-list doc column starts at different offsets: %v", docAt)
	}
}

// TestBaselineFlagsAreGone: the linter always enforces; the flags that
// selected otherwise are unknown flags now, not silent no-ops. So is
// -explain, which explained the retired durcheck's rules.
func TestBaselineFlagsAreGone(t *testing.T) {
	for _, args := range [][]string{{"-baseline", "x"}, {"-no-baseline"}, {"-write-baseline"}, {"-explain", "commit-before-writeback"}} {
		code, _, errs := lint(args...)
		if code != 2 || !strings.Contains(errs, "flag provided but not defined") {
			t.Errorf("%v: exit %d, stderr %q; want 2 and an unknown-flag diagnostic", args, code, errs)
		}
	}
}

// survivors is the registry the kill matrix left, in run order.
var survivors = []string{"sharecheck"}

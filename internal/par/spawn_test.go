package par

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// spawnSites maps every function of the module's product code that holds
// a go statement (package directory, then the function) to the tests that
// run it with more than one goroutine. The race detector reports only the
// interleavings a run executes; this table is what makes every spawn site
// execute under it. bench/ is left out: it is the measuring harness, not
// the product, and the nightly `go test -race ./...` runs it.
var spawnSites = map[[2]string][]string{
	{"internal/experiments", "runIndexed"}: {"TestRunAllParallelByteIdentical"},
	{"internal/par", "Do"}:                 {"TestDoCoversRangeOnce"},
	{"internal/storage", "savePages"}:      {"TestSaveTreeAtomicFaultsMatchSerialLoop"},
	{"internal/obs", "StartDebugServer"}:   {"TestDebugServerServesMetricsAndPprof"},
}

// TestSpawnSitesRunUnderRace holds the table to the code, then runs the
// table's tests under the race detector: a goroutine that shares an
// unsynchronised variable with its spawner or its siblings fails tier-1,
// not only CI's race step.
func TestSpawnSitesRunUnderRace(t *testing.T) {
	root := moduleRoot(t)
	found := spawningFuncs(t, root)
	for site := range found {
		if len(spawnSites[site]) == 0 {
			t.Errorf("%s: %s has a go statement and no test in spawnSites to run it under -race", site[0], site[1])
		}
	}
	for site := range spawnSites {
		if !found[site] {
			t.Errorf("%s: spawnSites lists %s, which holds no go statement", site[0], site[1])
		}
	}
	if t.Failed() {
		return
	}

	if raceBuild {
		t.Skip("this binary is built with -race: the tests it would run are already under the detector")
	}
	env, err := exec.Command("go", "env", "CGO_ENABLED", "GOOS", "GOARCH").Output()
	if err != nil {
		t.Fatalf("go env: %v", err)
	}
	if f := strings.Fields(string(env)); len(f) != 3 || f[0] != "1" || !raceSupported(f[1], f[2]) {
		t.Skipf("the race detector cannot build here (CGO_ENABLED, GOOS, GOARCH = %v)", f)
	}
	var pkgs, tests []string
	for site, names := range spawnSites {
		pkgs = append(pkgs, "./"+site[0])
		tests = append(tests, names...)
	}
	slices.Sort(pkgs)
	slices.Sort(tests)
	tests = slices.Compact(tests)
	cmd := exec.Command("go", append([]string{"test", "-race", "-v", "-run", "^(" + strings.Join(tests, "|") + ")$"}, pkgs...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s: %v\n%s", strings.Join(cmd.Args, " "), err, out)
	}
	for _, name := range tests {
		if !strings.Contains(string(out), "\n--- PASS: "+name+" (") {
			t.Errorf("%s did not run: no test of %v has that name", name, pkgs)
		}
	}
}

// spawningFuncs parses every non-test Go file of the module outside
// testdata, hidden and _ directories and bench/, and returns each
// function that holds a go statement, as (directory, name).
func spawningFuncs(t *testing.T, root string) map[[2]string]bool {
	t.Helper()
	fset := token.NewFileSet()
	found := map[[2]string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if path != root && (rel == "bench" || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			name := "package-level declaration"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				name = fd.Name.Name
				if fd.Recv != nil {
					name = "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + name
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					found[[2]string{filepath.ToSlash(filepath.Dir(rel)), name}] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) == 0 {
		t.Fatalf("no go statement under %s", root)
	}
	return found
}

// raceSupported is the Go toolchain's list of platforms -race builds on.
func raceSupported(goos, goarch string) bool {
	switch goos {
	case "linux":
		return goarch == "amd64" || goarch == "ppc64le" || goarch == "arm64" || goarch == "s390x"
	case "darwin":
		return goarch == "amd64" || goarch == "arm64"
	case "freebsd", "netbsd", "windows":
		return goarch == "amd64"
	}
	return false
}

func moduleRoot(t *testing.T) string {
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

package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"sync"
	"testing"
)

// fixturePkg typechecks one fixture source file as its own package, using
// the same loader machinery as LoadModule (stdlib imports are resolved
// from source). Lines containing the marker comment "// WANT" declare
// where findings are expected.
func fixturePkg(t *testing.T, src string) *Package {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if fixtureFset == nil {
		fixtureFset = token.NewFileSet()
	}
	if fixtureImp == nil {
		fixtureImp = newModuleImporter()
	}
	file, err := parser.ParseFile(fixtureFset, t.Name()+".go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing fixture: %v", err)
	}
	pkg, err := typecheck(fixtureFset, &rawPkg{importPath: "fixture/" + t.Name(), files: []*ast.File{file}}, fixtureImp)
	if err != nil {
		t.Fatalf("typechecking fixture: %v", err)
	}
	return pkg
}

var (
	fixtureMu   sync.Mutex
	fixtureFset *token.FileSet
	fixtureImp  *moduleImporter
)

// fixtureFile is one package of a multi-package fixture. Path is the
// import path; later files may import earlier ones.
type fixtureFile struct {
	path string
	src  string
}

// fixtureModule typechecks a small multi-package module (files in
// dependency order), using a private importer so fixture import paths
// never collide across tests. File names are "<TestName>_<i>.go".
func fixtureModule(t *testing.T, files []fixtureFile) []*Package {
	t.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if fixtureFset == nil {
		fixtureFset = token.NewFileSet()
	}
	imp := newModuleImporter()
	pkgs := make([]*Package, 0, len(files))
	for i, f := range files {
		name := fmt.Sprintf("%s_%d.go", t.Name(), i)
		file, err := parser.ParseFile(fixtureFset, name, f.src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parsing fixture %s: %v", f.path, err)
		}
		pkg, err := typecheck(fixtureFset, &rawPkg{importPath: f.path, files: []*ast.File{file}}, imp)
		if err != nil {
			t.Fatalf("typechecking fixture %s: %v", f.path, err)
		}
		imp.module[f.path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	return pkgs
}

// runModuleFixture runs one module-wide analyzer over a multi-package
// fixture, comparing findings per file against the "// WANT" markers.
func runModuleFixture(t *testing.T, a *Analyzer, files []fixtureFile) {
	t.Helper()
	pkgs := fixtureModule(t, files)
	findings := Run(pkgs, []*Analyzer{a})
	want := make(map[string]map[int]bool, len(files))
	for i, f := range files {
		want[fmt.Sprintf("%s_%d.go", t.Name(), i)] = wantLines(f.src)
	}
	got := make(map[string]map[int]bool)
	for _, f := range findings {
		if got[f.Pos.Filename] == nil {
			got[f.Pos.Filename] = make(map[int]bool)
		}
		got[f.Pos.Filename][f.Pos.Line] = true
		if !want[f.Pos.Filename][f.Pos.Line] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for name, lines := range want {
		for line := range lines {
			if !got[name][line] {
				t.Errorf("missing finding at %s:%d", name, line)
			}
		}
	}
}

// wantLines returns the 1-based line numbers carrying a "// WANT" marker.
func wantLines(src string) map[int]bool {
	out := make(map[int]bool)
	for i, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "// WANT") {
			out[i+1] = true
		}
	}
	return out
}

// callcheck reports every call of a function named fail. It stands in
// for an analyzer in the annotation test, whose subject is Run.
var callcheck = &Analyzer{Name: "callcheck", Check: func(m *Module) []Finding {
	var out []Finding
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "fail" {
						out = append(out, Finding{Pos: pkg.Fset.Position(call.Pos()), Analyzer: "callcheck", Message: "fail called"})
					}
				}
				return true
			})
		}
	}
	return out
}}

// TestRunHonorsAllowAnnotation: an annotation excuses its own line or
// the line below it, may list several analyzers, and excuses nothing
// for an analyzer it does not name.
func TestRunHonorsAllowAnnotation(t *testing.T) {
	runModuleFixture(t, callcheck, []fixtureFile{{path: "fixture/allow", src: `package allow

import "errors"

func fail() error { return errors.New("boom") }

func excused() {
	fail() //lint:allow callcheck best effort by design
	//lint:allow callcheck the caller retries
	fail()
	fail() //lint:allow sharecheck,callcheck both excused
	fail() //lint:allow all every analyzer excused
	fail() //lint:allow sharecheck wrong analyzer  // WANT
	fail() // WANT
}
`}})
}

package storage

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestTypedAtomicsOnly: every counter the module shares between
// goroutines is a typed atomic (atomic.Uint64 and its kin), whose type
// forbids a plain load beside an atomic add; the one plain access it
// leaves, a copy, is go vet copylocks'. The sync/atomic package
// functions reopen the mixed-access bug: a counter bumped with
// atomic.AddUint64 and read plainly in Stats compiles, passes its tests
// on amd64, and is torn or stale exactly when enough goroutines do I/O
// for the number to matter. So no non-test file of the module may use
// one, under whatever name it imports the package.
func TestTypedAtomicsOnly(t *testing.T) {
	root := moduleRoot(t)
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
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
		files++
		for _, pos := range legacyAtomicUses(f) {
			p := fset.Position(pos)
			rel, _ := filepath.Rel(root, p.Filename)
			t.Errorf("%s:%d: sync/atomic package function; use a typed atomic (atomic.Uint64 and kin)", rel, p.Line)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatalf("no Go files under %s", root)
	}
}

// legacyAtomicUses returns the position of every use of a sync/atomic
// package function (Add*, Load*, Store*, Swap*, CompareAndSwap*) in f.
func legacyAtomicUses(f *ast.File) []token.Pos {
	var names []string // what the file calls the package; "." for a dot import
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path != "sync/atomic" {
			continue
		}
		name := "atomic"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil
	}
	legacy := func(fn string) bool {
		for _, p := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap"} {
			if strings.HasPrefix(fn, p) {
				return true
			}
		}
		return false
	}
	var out []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok && legacy(x.Sel.Name) && slices.Contains(names, id.Name) {
				out = append(out, x.Pos())
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && legacy(id.Name) && slices.Contains(names, ".") {
				out = append(out, x.Pos())
			}
		}
		return true
	})
	return out
}

// moduleRoot walks up from the test's directory to the go.mod.
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

package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// repoRoot locates the module root of this repository from the test's
// working directory.
func repoRoot(t testing.TB) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(wd)
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestLoadModuleTypechecksWholeRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the full module (stdlib from source)")
	}
	pkgs, err := LoadModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
		if p.Types == nil || p.Info == nil || len(p.Files) == 0 {
			t.Errorf("package %s loaded incompletely", p.ImportPath)
		}
	}
	for _, want := range []string{
		"rtreebuf",
		"rtreebuf/internal/geom",
		"rtreebuf/internal/core",
		"rtreebuf/internal/rtree",
		"rtreebuf/internal/buffer",
		"rtreebuf/internal/analysis",
		"rtreebuf/cmd/rtreelint",
	} {
		if byPath[want] == nil {
			t.Errorf("package %s not loaded", want)
		}
	}
	// Cross-package types must be shared, not re-checked: the geom.Rect
	// used by core must be the same object the geom package exports.
	core, geom := byPath["rtreebuf/internal/core"], byPath["rtreebuf/internal/geom"]
	if core != nil && geom != nil {
		var imported bool
		for _, imp := range core.Types.Imports() {
			if imp == geom.Types {
				imported = true
			}
		}
		if !imported {
			t.Error("core does not share geom's *types.Package; the importer re-checked it")
		}
	}
}

// TestRepoIsLintClean is the enforcement test: the repository must stay
// clean under its own analyzers. A failure here means either a genuine
// violation slipped in (fix it) or an intentional exception lacks its
// lint:allow annotation (annotate it, with a reason).
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the full module (stdlib from source)")
	}
	pkgs, err := LoadModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range Run(pkgs, Analyzers()) {
		t.Errorf("%s", f)
	}
}

func TestFindModuleRootFailsOutsideModules(t *testing.T) {
	if _, err := FindModuleRoot(os.TempDir()); err == nil {
		// A go.mod above the system temp dir would be surprising but legal;
		// only fail when the walk clearly escaped to the filesystem root.
		if _, statErr := os.Stat(filepath.Join(string(os.PathSeparator), "go.mod")); statErr == nil {
			t.Skip("go.mod at filesystem root")
		}
		t.Error("FindModuleRoot found a module above the temp directory")
	}
}

func TestAnalyzerTargets(t *testing.T) {
	a := &Analyzer{Targets: []string{"rtreebuf/internal/geom", "rtreebuf/cmd/..."}}
	for path, want := range map[string]bool{
		"rtreebuf/internal/geom": true,
		"rtreebuf/internal/core": false,
		"rtreebuf/cmd":           true,
		"rtreebuf/cmd/rtreelint": true,
		"rtreebuf/cmdextra":      false,
	} {
		if got := a.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	if !(&Analyzer{}).AppliesTo("anything") {
		t.Error("empty target list must apply everywhere")
	}

	// The registry's scopes follow the code, not the PR 1 layout: the N-D
	// geometry and model are float and probability code like core, and
	// the pool and the metrics registry return errors like storage.
	want := map[string]string{
		"floatcmp":  "internal/geom internal/core internal/hilbert internal/nd",
		"errcheck":  "internal/storage internal/buffer internal/obs internal/datagen cmd/...",
		"probrange": "internal/core internal/nd",
	}
	for _, a := range Analyzers() {
		if a.Check == nil {
			continue
		}
		got := strings.ReplaceAll(strings.Join(a.Targets, " "), "rtreebuf/", "")
		if got != want[a.Name] {
			t.Errorf("%s targets %q, want %q", a.Name, got, want[a.Name])
		}
	}
}

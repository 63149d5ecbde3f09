package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
)

// stdImporter typechecks standard-library packages from GOROOT source,
// replacing importer.ForCompiler(fset, "source", nil) with two properties
// the analysis loader needs and the stock importer lacks:
//
//   - memoization across loads: the importer is a process-wide singleton,
//     so every LoadModule call, fixture test, and analyzer run after the
//     first reuses the already-typechecked stdlib instead of re-checking
//     it from scratch (this is what makes TestRepoIsLintClean stop being
//     the slowest test in the suite);
//   - concurrency: independent packages of the dependency closure are
//     typechecked in parallel, bounded by GOMAXPROCS.
//
// Two further choices make it fast: stdlib function bodies are skipped
// (types.Config.IgnoreFuncBodies — analyzers only ever need the stdlib's
// exported API surface; module packages are still checked with bodies),
// and files are located with go/build so build tags and GOOS/GOARCH file
// suffixes resolve exactly as the toolchain would.
//
// The importer is safe for concurrent use; a single mutex serializes
// top-level Import calls while the internal workers parallelize the
// closure of one call.
type stdImporter struct {
	mu     sync.Mutex
	fset   *token.FileSet
	pkgs   map[string]*types.Package
	bps    map[string]*build.Package
	ctx    build.Context
	srcDir string
}

// std is the process-wide stdlib importer shared by every module load and
// fixture typecheck.
var std = newStdImporter()

func newStdImporter() *stdImporter {
	ctx := build.Default
	// Pure-Go variants throughout: cgo-gated files would need the cgo
	// preprocessor, which a source-only typecheck cannot run.
	ctx.CgoEnabled = false
	return &stdImporter{
		fset:   token.NewFileSet(),
		pkgs:   map[string]*types.Package{"unsafe": types.Unsafe},
		bps:    make(map[string]*build.Package),
		ctx:    ctx,
		srcDir: filepath.Join(ctx.GOROOT, "src"),
	}
}

// Import implements types.Importer.
func (s *stdImporter) Import(path string) (*types.Package, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	var order []string
	if err := s.closure(path, make(map[string]bool), &order); err != nil {
		return nil, err
	}
	// s.mu is held across the whole closure's typechecking: the importer
	// serializes it by design.
	if err := s.checkAll(order); err != nil {
		return nil, err
	}
	pkg, ok := s.pkgs[path]
	if !ok {
		return nil, fmt.Errorf("analysis: stdlib package %s did not typecheck", path)
	}
	return pkg, nil
}

// closure appends the not-yet-typechecked dependency closure of path to
// order, dependencies first.
func (s *stdImporter) closure(path string, seen map[string]bool, order *[]string) error {
	if seen[path] {
		return nil
	}
	seen[path] = true
	if _, done := s.pkgs[path]; done {
		return nil
	}
	bp, err := s.buildPkg(path)
	if err != nil {
		return err
	}
	for _, imp := range bp.Imports {
		if imp == "C" {
			continue
		}
		if err := s.closure(imp, seen, order); err != nil {
			return err
		}
	}
	*order = append(*order, path)
	return nil
}

// buildPkg locates path in GOROOT and memoizes the result. Packages the
// stdlib vendors (net imports golang.org/x/net/dns/dnsmessage, which
// lives under GOROOT/src/vendor) are not found by a plain import-path
// lookup — go/build defers to module resolution for them — so those
// retry under the explicit vendor/ prefix.
func (s *stdImporter) buildPkg(path string) (*build.Package, error) {
	if bp, ok := s.bps[path]; ok {
		return bp, nil
	}
	bp, err := s.ctx.Import(path, s.srcDir, 0)
	if err != nil && !strings.HasPrefix(path, "vendor/") {
		if vbp, verr := s.ctx.Import("vendor/"+path, s.srcDir, 0); verr == nil {
			bp, err = vbp, nil
		}
	}
	if err != nil {
		return nil, fmt.Errorf("analysis: locating stdlib package %s: %w", path, err)
	}
	s.bps[path] = bp
	return bp, nil
}

// checkAll typechecks the packages of order (already topologically
// sorted, dependencies first) with up to GOMAXPROCS workers. Scheduling
// is by level: each round runs every package whose dependencies are
// complete, so workers only ever read fully-constructed packages.
func (s *stdImporter) checkAll(order []string) error {
	remaining := make([]string, len(order))
	copy(remaining, order)
	for len(remaining) > 0 {
		var level, next []string
		for _, path := range remaining {
			if s.depsDone(path) {
				level = append(level, path)
			} else {
				next = append(next, path)
			}
		}
		if len(level) == 0 {
			return fmt.Errorf("analysis: stdlib import cycle through %s", remaining[0])
		}
		results := make([]*types.Package, len(level))
		errs := make([]error, len(level))
		sem := make(chan struct{}, runtime.GOMAXPROCS(0))
		var wg sync.WaitGroup
		for i, path := range level {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, path string) {
				defer wg.Done()
				defer func() { <-sem }()
				results[i], errs[i] = s.check(path)
			}(i, path)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return err
			}
			s.pkgs[level[i]] = results[i]
		}
		remaining = next
	}
	return nil
}

// depsDone reports whether every import of path has been typechecked.
func (s *stdImporter) depsDone(path string) bool {
	bp := s.bps[path]
	for _, imp := range bp.Imports {
		if imp == "C" {
			continue
		}
		if _, ok := s.pkgs[imp]; !ok {
			return false
		}
	}
	return true
}

// check parses and typechecks one stdlib package. During a level all
// calls only read s.pkgs/s.bps (written between levels by checkAll) and
// s.fset (internally synchronized), so concurrent checks are safe.
func (s *stdImporter) check(path string) (*types.Package, error) {
	bp := s.bps[path]
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		file, err := parser.ParseFile(s.fset, filepath.Join(bp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing stdlib %s: %w", path, err)
		}
		files = append(files, file)
	}
	var hard []error
	conf := types.Config{
		Importer:         stdMapImporter{s.pkgs},
		IgnoreFuncBodies: true,
		FakeImportC:      true,
		// With bodies skipped, imports and variables used only inside
		// bodies look unused; those diagnostics are expected noise, not
		// errors in the (known-good) stdlib source.
		Error: func(err error) {
			msg := err.Error()
			if strings.Contains(msg, "imported and not used") ||
				strings.Contains(msg, "declared and not used") {
				return
			}
			hard = append(hard, err)
		},
	}
	tpkg, _ := conf.Check(path, s.fset, files, nil)
	if len(hard) > 0 {
		return nil, fmt.Errorf("analysis: typechecking stdlib %s: %w", path, hard[0])
	}
	if tpkg == nil {
		return nil, fmt.Errorf("analysis: typechecking stdlib %s produced no package", path)
	}
	return tpkg, nil
}

// stdMapImporter resolves imports from an already-complete package map;
// used for the stdlib packages themselves, whose dependencies are always
// checked first.
type stdMapImporter struct{ pkgs map[string]*types.Package }

// Import implements types.Importer.
func (m stdMapImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	return nil, fmt.Errorf("analysis: stdlib package %s not yet typechecked", path)
}

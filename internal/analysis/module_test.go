package analysis

import (
	"strings"
	"sync"
	"testing"
)

var (
	repoModOnce sync.Once
	repoMod     *Module
	repoModErr  error
)

// loadRepoModule loads and graphs the real repository once per test
// binary; the graph is read-only, so sharing it across tests is safe.
func loadRepoModule(t *testing.T) *Module {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the whole-repo call graph")
	}
	root := repoRoot(t)
	repoModOnce.Do(func() {
		var pkgs []*Package
		if pkgs, repoModErr = LoadModule(root); repoModErr == nil {
			repoMod = NewModule(pkgs)
		}
	})
	if repoModErr != nil {
		t.Fatal(repoModErr)
	}
	return repoMod
}

// TestFactsCrossPackageRealRepo is the acceptance check that facts flow
// through the real codebase: buffer.(*Pool).Get does I/O only because a
// storage.DiskManager implementation does, two packages away and behind
// an interface, while the analytic model stays pure.
func TestFactsCrossPackageRealRepo(t *testing.T) {
	g := loadRepoModule(t).Graph

	get := one(t, g, "buffer.(*Pool).Get")
	for _, want := range []FactSet{FactDoesIO, FactMayBlock, FactAllocates} {
		if get.Facts&want == 0 {
			t.Errorf("Pool.Get facts = %s, want %s set", get.Facts, want)
		}
	}
	chain := g.FactChain(get, FactDoesIO)
	if len(chain) < 2 {
		t.Fatalf("FactChain(Pool.Get, doesIO) = %v, want a cross-package chain", chain)
	}
	var crossesIntoStorage bool
	for _, hop := range chain {
		if strings.Contains(hop, "storage.") {
			crossesIntoStorage = true
		}
	}
	if !crossesIntoStorage {
		t.Errorf("doesIO chain for Pool.Get never enters storage: %v", chain)
	}

	// FileManager.ReadPage mostly copies from a mapping, which the facts
	// cannot see; its pread fallback is what keeps the device read
	// doesIO|mayBlock for lockcheck, so the fallback must stay.
	read := one(t, g, "storage.(*FileManager).ReadPage")
	if want := FactDoesIO | FactMayBlock; read.Facts&want != want {
		t.Errorf("FileManager.ReadPage facts = %s, want %s set", read.Facts, want)
	}

	// The analytic model must be disk-free end to end.
	for _, n := range g.Resolve(RootSpec{Path: "rtreebuf/internal/core", Recv: "*", Name: "AccessProb"}) {
		if n.Facts&FactDoesIO != 0 {
			t.Errorf("%s facts = %s, want no doesIO", n, n.Facts)
		}
	}
}

// TestDiskManagerDispatchRealRepo pins the CHA behaviour the lockcheck
// and iopurity results rely on: the retry layer's read through the
// DiskManager interface must see more than one module implementer.
func TestDiskManagerDispatchRealRepo(t *testing.T) {
	g := loadRepoModule(t).Graph
	n := one(t, g, "storage.(*ResilientManager).ReadPage")
	var best *Call
	for _, c := range n.Calls {
		if c.Dispatch && (best == nil || len(c.Targets) > len(best.Targets)) {
			best = c
		}
	}
	if best == nil {
		t.Fatal("ResilientManager.ReadPage has no interface dispatch site (inner.ReadPage)")
	}
	if len(best.Targets) < 2 {
		t.Errorf("DiskManager.ReadPage dispatch resolves %d targets, want >= 2", len(best.Targets))
	}
	if best.Facts()&FactDoesIO == 0 {
		t.Errorf("DiskManager.ReadPage dispatch facts = %s, want doesIO", best.Facts())
	}
}

// TestHotRootsExist guards the root lists against silent rot: a renamed
// Search method or model function must fail here, not silently disable
// hotalloc or iopurity.
func TestHotRootsExist(t *testing.T) {
	g := loadRepoModule(t).Graph
	for _, spec := range append(HotRoots(), PureRoots()...) {
		if len(g.Resolve(spec)) == 0 {
			t.Errorf("root spec %s matches no function in the repository", spec)
		}
	}
}

// BenchmarkLoadModule documents the loader cost (the stdlib closure is
// typechecked once per process and memoized; iterations measure the
// module-only reload that rtreelint and the fixture tests pay).
func BenchmarkLoadModule(b *testing.B) {
	root := repoRoot(b)
	if _, err := LoadModule(root); err != nil { // warm the stdlib cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadModule(root); err != nil {
			b.Fatal(err)
		}
	}
}

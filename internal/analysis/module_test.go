package analysis

import (
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
// through the real codebase: storage.(*PagedTree).read acquires a lock
// only because buffer.(*ShardedPool).View does, one package away and
// behind the PagePool interface, while a fault's in-memory probe and the
// analytic model take none.
func TestFactsCrossPackageRealRepo(t *testing.T) {
	g := loadRepoModule(t).Graph

	read := one(t, g, "storage.(*PagedTree).read")
	if read.Facts&FactAcquiresLock == 0 {
		t.Errorf("PagedTree.read facts = %s, want acquiresLock", read.Facts)
	}
	var via *Call
	for _, c := range read.Calls {
		for _, tn := range c.Targets {
			if c.Dispatch && tn.String() == "buffer.(*ShardedPool).View" {
				via = c
			}
		}
	}
	if via == nil {
		t.Fatal("PagedTree.read has no PagePool.View dispatch reaching buffer.(*ShardedPool).View")
	}
	if via.Std != 0 || via.Facts()&FactAcquiresLock == 0 {
		t.Errorf("PagePool.View dispatch: stdlib facts %s, transitive facts %s; want acquiresLock from a module target only", via.Std, via.Facts())
	}
	if probe := one(t, g, "buffer.(*Pool).probe"); probe.Facts&FactAcquiresLock != 0 {
		t.Errorf("Pool.probe facts = %s: the fault's first phase takes no lock", probe.Facts)
	}

	// The analytic model is lock-free and serial end to end.
	for _, n := range g.Nodes() {
		if n.Pkg.ImportPath == "rtreebuf/internal/core" && n.Facts&(FactAcquiresLock|FactSpawnsGoroutine) != 0 {
			t.Errorf("%s facts = %s, want neither acquiresLock nor spawnsGoroutine", n, n.Facts)
		}
	}
}

// TestDiskManagerDispatchRealRepo pins the CHA behaviour the facts rely
// on: the retry layer's read through the DiskManager interface must see
// more than one module implementer.
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

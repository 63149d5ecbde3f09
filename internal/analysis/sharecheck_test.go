package analysis

import (
	"strings"
	"testing"
)

func sharecheckAnalyzer() *Analyzer {
	return &Analyzer{Name: "sharecheck", CheckModule: checkShare}
}

// TestShareCheckGoClosure covers the basic spawn/outside conflict: a
// captured counter written in the goroutine and read afterwards races;
// the same shape with a WaitGroup barrier before the read, or a mutex on
// both sides, is the blessed pattern.
func TestShareCheckGoClosure(t *testing.T) {
	runModuleFixture(t, sharecheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestShareCheckGoClosure/p",
		src: `package p

import "sync"

func Racy() int {
	n := 0
	go func() {
		n++ // WANT
	}()
	return n
}

func Barriered() int {
	n := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n++
	}()
	wg.Wait()
	return n
}

func Locked() int {
	n := 0
	var mu sync.Mutex
	done := make(chan struct{})
	go func() {
		mu.Lock()
		n++
		mu.Unlock()
		close(done)
	}()
	mu.Lock()
	v := n
	mu.Unlock()
	<-done
	return v
}
`,
	}})
}

// TestShareCheckLoopSiblings covers concurrent instances of one loop
// body: a shared accumulator races with itself, while the per-slot
// disjoint-index write (results[i], index local to the region) is the
// repository's fan-out idiom and passes.
func TestShareCheckLoopSiblings(t *testing.T) {
	runModuleFixture(t, sharecheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestShareCheckLoopSiblings/p",
		src: `package p

import "sync"

func SharedSum(inputs []int) int {
	total := 0
	var wg sync.WaitGroup
	for _, v := range inputs {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			total += v // WANT
		}(v)
	}
	wg.Wait()
	return total
}

func DisjointSlots(inputs []int) []int {
	results := make([]int, len(inputs))
	var wg sync.WaitGroup
	for i, v := range inputs {
		wg.Add(1)
		go func(i, v int) {
			defer wg.Done()
			results[i] = v * v
		}(i, v)
	}
	wg.Wait()
	return results
}

func CapturedIndex(inputs []int) []int {
	results := make([]int, len(inputs))
	j := 0
	var wg sync.WaitGroup
	for range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[j] = 1 // WANT
		}()
		j++
	}
	wg.Wait()
	return results
}
`,
	}})
}

// TestShareCheckSpawningCallee covers literals handed to a callee that
// carries the spawnsGoroutine fact: sibling instances of the literal may
// run concurrently (a shared write races), but the helper is assumed to
// join before returning, so reads after the call pass — the forEachPoint
// idiom.
func TestShareCheckSpawningCallee(t *testing.T) {
	runModuleFixture(t, sharecheckAnalyzer(), []fixtureFile{
		{
			path: "fixture/TestShareCheckSpawningCallee/pool",
			src: `package pool

import "sync"

func ForEach(n int, f func(int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
}
`,
		},
		{
			path: "fixture/TestShareCheckSpawningCallee/p",
			src: `package p

import "fixture/TestShareCheckSpawningCallee/pool"

func Racy(n int) int {
	total := 0
	pool.ForEach(n, func(i int) {
		total += i // WANT
	})
	return total
}

func Disjoint(n int) []int {
	out := make([]int, n)
	pool.ForEach(n, func(i int) {
		out[i] = i * i
	})
	return out
}
`,
		},
	})
}

// TestShareCheckPtrMethods covers pointer-receiver method calls on a
// captured value: unguarded methods on both sides conflict, methods whose
// facts include acquiresLock are their own guard.
func TestShareCheckPtrMethods(t *testing.T) {
	runModuleFixture(t, sharecheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestShareCheckPtrMethods/p",
		src: `package p

import "sync"

type Bare struct{ n int }

func (b *Bare) Bump() { b.n++ }

type Guarded struct {
	mu sync.Mutex
	n  int
}

func (g *Guarded) Bump() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
}

func RacyMethods() {
	b := &Bare{}
	done := make(chan struct{})
	go func() {
		b.Bump() // WANT
		close(done)
	}()
	b.Bump()
	<-done
}

func GuardedMethods() {
	g := &Guarded{}
	done := make(chan struct{})
	go func() {
		g.Bump()
		close(done)
	}()
	g.Bump()
	<-done
}
`,
	}})
}

// TestShareCheckHeldOnEveryPath: the common lock must be held on every
// path to the outside access. An early-out branch that unlocks and
// returns leaves it held after the branch (EarlyOut is clean); a lock
// taken on one branch only guards nothing after the branches meet
// (MaybeLocked).
func TestShareCheckHeldOnEveryPath(t *testing.T) {
	runModuleFixture(t, sharecheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestShareCheckHeldOnEveryPath/p",
		src: `package p

import "sync"

func EarlyOut(skip bool) int {
	n := 0
	var mu sync.Mutex
	go func() {
		mu.Lock()
		n++
		mu.Unlock()
	}()
	mu.Lock()
	if skip {
		mu.Unlock()
		return 0
	}
	v := n
	mu.Unlock()
	return v
}

func MaybeLocked(lock bool) int {
	n := 0
	var mu sync.Mutex
	go func() {
		mu.Lock()
		n++ // WANT
		mu.Unlock()
	}()
	if lock {
		mu.Lock()
	}
	v := n
	if lock {
		mu.Unlock()
	}
	return v
}
`,
	}})
}

// TestShareCheckRealRepoClean asserts the repository's own fan-outs —
// sim.RunPreparedParallel's per-replica slots, the experiments engine's
// worker pool, the stdlib importer's level workers, and the buffer
// package (ShardedPool's per-shard mutexes included) — produce no
// findings.
func TestShareCheckRealRepoClean(t *testing.T) {
	m := loadRepoModule(t)
	for _, f := range checkShare(m) {
		t.Errorf("unexpected sharecheck finding in repository: %s", f)
	}
}

// TestSpawnFactRealRepo pins the spawnsGoroutine fact on the real
// fan-out entry points — and its absence from the serial simulator path
// that sharecheck's capture rules depend on.
func TestSpawnFactRealRepo(t *testing.T) {
	g := loadRepoModule(t).Graph
	for _, name := range []string{
		"sim.RunPreparedParallel",
		"experiments.(Config).forEachPoint",
		"obs.StartDebugServer",
	} {
		if n := one(t, g, name); n.Facts&FactSpawnsGoroutine == 0 {
			t.Errorf("%s facts = %s, want spawnsGoroutine", n, n.Facts)
		}
	}
	if n := one(t, g, "sim.RunPrepared"); n.Facts&FactSpawnsGoroutine != 0 {
		t.Errorf("sim.RunPrepared facts = %s: the serial path must not spawn", n.Facts)
	}
	// RunParallel reaches the spawn through RunPreparedParallel; the
	// witness chain must say so.
	rp := one(t, g, "sim.RunParallel")
	if rp.Facts&FactSpawnsGoroutine == 0 {
		t.Fatalf("sim.RunParallel facts = %s, want spawnsGoroutine", rp.Facts)
	}
	chain := strings.Join(g.FactChain(rp, FactSpawnsGoroutine), "; ")
	if !strings.Contains(chain, "RunPreparedParallel") {
		t.Errorf("spawnsGoroutine chain for RunParallel = %q, want it to pass through RunPreparedParallel", chain)
	}
}

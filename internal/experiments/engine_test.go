package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtreebuf/internal/pack"
)

// engineIDs is a representative subset spanning model-only sweeps,
// sim-backed validation, pinning, and shared-tree experiments — enough to
// exercise every cache kind without re-running the whole suite per test.
func engineIDs() []string {
	return []string{"fig6", "fig7", "fig9", "fig10", "table1", "table2", "ext-staticlru"}
}

func reportTexts(reports []*Report) []string {
	out := make([]string, len(reports))
	for i, r := range reports {
		out[i] = r.Text()
	}
	return out
}

// The engine with one worker must reproduce direct serial Run calls
// byte for byte — the cache may dedupe work but never change results.
func TestRunAllMatchesSerialRuns(t *testing.T) {
	ids := engineIDs()
	reports, err := RunAll(ids, quickCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := Run(id, quickCfg())
		if err != nil {
			t.Fatal(err)
		}
		if got := reports[i].Text(); got != want.Text() {
			t.Errorf("%s: engine report differs from serial Run", id)
		}
	}
}

// Worker count must not leak into the reports: parallel output is
// byte-identical to the serial engine.
func TestRunAllParallelByteIdentical(t *testing.T) {
	ids := engineIDs()
	serial, err := RunAll(ids, quickCfg(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunAll(ids, quickCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	s, p := reportTexts(serial), reportTexts(parallel)
	for i, id := range ids {
		if s[i] != p[i] {
			t.Errorf("%s: parallel engine report differs from serial engine", id)
		}
	}
}

func TestRunAllTimed(t *testing.T) {
	ids := []string{"table2", "fig10"}
	reports, timings, err := RunAllTimed(ids, quickCfg(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || len(timings) != 2 {
		t.Fatalf("got %d reports, %d timings", len(reports), len(timings))
	}
	for i, id := range ids {
		if reports[i].ID != id || timings[i].ID != id {
			t.Errorf("slot %d: report %s, timing %s, want %s", i, reports[i].ID, timings[i].ID, id)
		}
		if timings[i].Seconds < 0 {
			t.Errorf("%s: negative timing", id)
		}
	}
	if _, err := RunAll([]string{"table2", "nope"}, quickCfg(), 2); err == nil {
		t.Error("unknown id accepted")
	}
	if reports, err := RunAll(nil, quickCfg(), 1); err != nil || len(reports) != len(IDs()) {
		t.Errorf("empty ids: %d reports, err %v", len(reports), err)
	}
}

// Concurrent cache lookups of the same key must build exactly once and
// hand every caller the same value.
func TestBuildCacheBuildsOnce(t *testing.T) {
	c := newBuildCache()
	var builds atomic.Int32
	key := dataKey{kind: "spoints", n: 42, seed: 7}
	var wg sync.WaitGroup
	vals := make([]any, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _ = c.get(key, func() (any, error) {
				builds.Add(1)
				time.Sleep(time.Millisecond) // widen the race window
				return &struct{ x int }{42}, nil
			})
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("built %d times, want 1", n)
	}
	for i := 1; i < 16; i++ {
		if vals[i] != vals[0] {
			t.Error("callers got different values for one key")
		}
	}
	// A nil cache builds fresh every time.
	var nilCache *buildCache
	a, _ := nilCache.get(key, func() (any, error) { return new(int), nil })
	b, _ := nilCache.get(key, func() (any, error) { return new(int), nil })
	if a == b {
		t.Error("nil cache memoized")
	}
}

// Shared-cache hygiene: two experiments asking for the same tree get the
// same instance (memoized), while mutating experiments bypass the cache.
func TestCacheSharesTreesAcrossExperiments(t *testing.T) {
	cfg := quickCfg()
	cfg.cache = newBuildCache()
	t1, err := cfg.tigerTree(pack.HilbertSort, fig6NodeCap)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cfg.tigerTree(pack.HilbertSort, fig7NodeCap) // fig6 and fig7 share node cap 100
	if err != nil {
		t.Fatal(err)
	}
	if t1 != t2 {
		t.Error("same (data, alg, cap) produced distinct trees")
	}
	t3, err := cfg.tigerTree(pack.HilbertSort, pinningNodeCap)
	if err != nil {
		t.Fatal(err)
	}
	if t1 == t3 {
		t.Error("different node caps shared a tree")
	}
}

func TestForEachPoint(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8} {
		cfg := Config{workers: workers}
		got := make([]int, 5)
		if err := cfg.forEachPoint(5, func(i int) error { got[i] = i + 1; return nil }); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != i+1 {
				t.Errorf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
}

// The engine's one work queue: every index runs exactly once, whatever
// the worker count and whatever fails, and the lowest index's error wins.
func TestRunIndexed(t *testing.T) {
	for _, n := range []int{0, 1, 5} {
		for _, workers := range []int{0, 1, 3, 8} {
			runs := make([]atomic.Int32, n)
			err := runIndexed(workers, n, func(i int) error {
				runs[i].Add(1)
				if i == 1 || i == 3 {
					return fmt.Errorf("point %d", i)
				}
				return nil
			})
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
			want := "<nil>"
			if n > 1 {
				want = "point 1"
			}
			if fmt.Sprint(err) != want {
				t.Errorf("n=%d workers=%d: error %v, want %s", n, workers, err, want)
			}
		}
	}
}

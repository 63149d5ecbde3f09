package sim

import (
	"math"
	"reflect"
	"testing"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

func tracedFixture(t testing.TB) *rtree.Tree {
	t.Helper()
	rects := datagen.SyntheticRegions(4000, 88)
	tr, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 25}, datagen.Items(rects))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRunTracedValidation(t *testing.T) {
	tr := tracedFixture(t)
	if _, err := RunTraced(tr, UniformPoints{}, rtree.TraceDFS, Config{BufferSize: 0}); err == nil {
		t.Error("zero buffer accepted")
	}
	walk, _ := NewRandomWalk(0.1)
	if _, err := RunTraced(tr, walk, rtree.TraceDFS, Config{BufferSize: 10, Batches: 1, BatchSize: 10}); err == nil {
		t.Error("unsupported workload accepted")
	}
}

// The ablation DESIGN.md commits to: within-query access order (DFS vs
// level order) does not change steady-state disk accesses measurably,
// and both agree with the MBR-list simulator, which uses page-id order.
func TestTracedOrdersAgree(t *testing.T) {
	tr := tracedFixture(t)
	w, err := NewUniformRegions(0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BufferSize: 60, Batches: 8, BatchSize: 10000, Seed: 33}

	dfs, err := RunTraced(tr, w, rtree.TraceDFS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := RunTraced(tr, w, rtree.TraceLevelOrder, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mbr, err := Run(tr.Levels(), w, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Node accesses are identical by construction (same visit sets and
	// same query streams from the same seed).
	if math.Abs(dfs.NodesPerQuery.Mean-lvl.NodesPerQuery.Mean) > 1e-9 {
		t.Errorf("node accesses differ by order: %g vs %g",
			dfs.NodesPerQuery.Mean, lvl.NodesPerQuery.Mean)
	}
	if math.Abs(dfs.NodesPerQuery.Mean-mbr.NodesPerQuery.Mean) > 1e-9 {
		t.Errorf("traced vs MBR-list node accesses: %g vs %g",
			dfs.NodesPerQuery.Mean, mbr.NodesPerQuery.Mean)
	}
	// Disk accesses may differ slightly (eviction order), but not by more
	// than a couple percent at steady state.
	base := math.Max(mbr.DiskPerQuery.Mean, 0.05)
	if math.Abs(dfs.DiskPerQuery.Mean-lvl.DiskPerQuery.Mean)/base > 0.03 {
		t.Errorf("disk accesses differ by order: DFS %g vs level %g",
			dfs.DiskPerQuery.Mean, lvl.DiskPerQuery.Mean)
	}
	if math.Abs(dfs.DiskPerQuery.Mean-mbr.DiskPerQuery.Mean)/base > 0.03 {
		t.Errorf("traced vs MBR-list disk accesses: %g vs %g",
			dfs.DiskPerQuery.Mean, mbr.DiskPerQuery.Mean)
	}
}

func TestTracedPointAndDataDriven(t *testing.T) {
	tr := tracedFixture(t)
	levels := tr.Levels()
	cfg := Config{BufferSize: 40, Batches: 5, BatchSize: 8000, Seed: 44}

	for _, w := range []Workload{
		UniformPoints{},
		DataDriven{QX: 0.02, QY: 0.02, Centers: centersOf(levels)},
	} {
		traced, err := RunTraced(tr, w, rtree.TraceDFS, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mbr, err := Run(levels, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(traced.NodesPerQuery.Mean-mbr.NodesPerQuery.Mean) > 1e-9 {
			t.Errorf("%s: node accesses %g vs %g", w.Describe(),
				traced.NodesPerQuery.Mean, mbr.NodesPerQuery.Mean)
		}
	}
}

// centersOf extracts leaf MBR centers as stand-in data centers.
func centersOf(levels [][]geom.Rect) []geom.Point {
	leaves := levels[len(levels)-1]
	out := make([]geom.Point, len(leaves))
	for i, r := range leaves {
		out[i] = r.Center()
	}
	return out
}

func TestTracedPinning(t *testing.T) {
	tr := tracedFixture(t)
	cfg := Config{BufferSize: 30, PinLevels: 2, Batches: 3, BatchSize: 5000, Seed: 55}
	res, err := RunTraced(tr, UniformPoints{}, rtree.TraceDFS, cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := RunTraced(tr, UniformPoints{}, rtree.TraceDFS, Config{
		BufferSize: 30, Batches: 3, BatchSize: 5000, Seed: 55,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DiskPerQuery.Mean > base.DiskPerQuery.Mean+0.01 {
		t.Errorf("pinning hurt: %g vs %g", res.DiskPerQuery.Mean, base.DiskPerQuery.Mean)
	}
}

// RunTraced runs under the same driver as Run, so it honours the whole
// Config: a non-LRU Policy changes the result and lands where the
// MBR-list simulator lands under that policy, and a registry collects the
// same series without changing any number.
func TestTracedHonoursPolicyAndMetrics(t *testing.T) {
	tr := tracedFixture(t)
	w, err := NewUniformRegions(0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	lruCfg := Config{BufferSize: 60, Batches: 8, BatchSize: 10000, Seed: 33}
	clockCfg := lruCfg
	clockCfg.Policy = func(capacity, numPages int) buffer.Policy { return buffer.NewClock(capacity, numPages) }

	lru, err := RunTraced(tr, w, rtree.TraceDFS, lruCfg)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := RunTraced(tr, w, rtree.TraceDFS, clockCfg)
	if err != nil {
		t.Fatal(err)
	}
	if clock.DiskPerQuery.Mean == lru.DiskPerQuery.Mean {
		t.Errorf("CLOCK and LRU traced runs both report %g disk accesses: Policy ignored", lru.DiskPerQuery.Mean)
	}
	g, err := Prepare(tr.Levels(), w)
	if err != nil {
		t.Fatal(err)
	}
	mbr, err := RunPrepared(g, w, clockCfg)
	if err != nil {
		t.Fatal(err)
	}
	base := math.Max(mbr.DiskPerQuery.Mean, 0.05)
	if math.Abs(clock.DiskPerQuery.Mean-mbr.DiskPerQuery.Mean)/base > 0.03 {
		t.Errorf("CLOCK: traced %g vs MBR-list %g disk accesses",
			clock.DiskPerQuery.Mean, mbr.DiskPerQuery.Mean)
	}

	reg := obs.NewRegistry()
	withMetrics := clockCfg
	withMetrics.Metrics = reg
	observed, err := RunTraced(tr, w, rtree.TraceDFS, withMetrics)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(observed, clock) {
		t.Errorf("metrics changed the result:\n with    %+v\n without %+v", observed, clock)
	}
	want := float64(clockCfg.Batches * clockCfg.BatchSize)
	if got, ok := snapValue(t, reg, "sim_queries_total"); !ok || got != want {
		t.Errorf("sim_queries_total = %v (ok=%v), want %v", got, ok, want)
	}
}

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
	tr.AssignPageIDs()
	return tr
}

// runTraced replays real DFS searches of tr through RunSource, the source
// built as ext-knn's replay builds it: each query runs TraceWindow and
// appends the pages it visits. The test points come from the stream
// RunPrepared draws with cfg.Seed, so both runs see the same queries.
func runTraced(t *testing.T, tr *rtree.Tree, w Workload, cfg Config) Result {
	t.Helper()
	query := queryOf(t, w)
	rng := stream(cfg.Seed)
	next := func(dst []int32) []int32 {
		tr.TraceWindow(query(w.Next(rng)), func(v rtree.NodeVisit) {
			dst = append(dst, int32(v.Page))
		})
		return dst
	}
	res, err := RunSource(next, tr.PageLevels(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runMBR is the level-order arm: the MBR-list simulator touches a query's
// pages in page-ID order, which on a packed tree is level order.
func runMBR(t *testing.T, tr *rtree.Tree, w Workload, cfg Config) Result {
	t.Helper()
	g, err := Prepare(tr.Levels(), w)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPrepared(g, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// queryOf inverts a workload's test-point convention back into the
// query rectangle.
func queryOf(t *testing.T, w Workload) func(geom.Point) geom.Rect {
	t.Helper()
	switch wl := w.(type) {
	case UniformPoints:
		return geom.PointRect
	case UniformRegions:
		return func(p geom.Point) geom.Rect {
			return geom.Rect{MinX: p.X - wl.QX, MinY: p.Y - wl.QY, MaxX: p.X, MaxY: p.Y}
		}
	case DataDriven:
		return func(p geom.Point) geom.Rect { return geom.RectAround(p, wl.QX, wl.QY) }
	}
	t.Fatalf("no query rectangle for workload %T", w)
	return nil
}

// The ablation DESIGN.md commits to: within-query access order (DFS vs
// level order) does not change steady-state disk accesses measurably.
func TestTracedOrdersAgree(t *testing.T) {
	tr := tracedFixture(t)
	w, err := NewUniformRegions(0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{BufferSize: 60, Batches: 8, BatchSize: 10000, Seed: 33}

	dfs := runTraced(t, tr, w, cfg)
	lvl := runMBR(t, tr, w, cfg)

	// Node accesses are identical by construction (same visit sets and
	// same query streams from the same seed).
	if dfs.NodesPerQuery.Mean != lvl.NodesPerQuery.Mean {
		t.Errorf("node accesses differ by order: DFS %g vs level %g",
			dfs.NodesPerQuery.Mean, lvl.NodesPerQuery.Mean)
	}
	// Disk accesses may differ slightly (eviction order), but not by more
	// than a couple percent at steady state.
	base := math.Max(lvl.DiskPerQuery.Mean, 0.05)
	if math.Abs(dfs.DiskPerQuery.Mean-lvl.DiskPerQuery.Mean)/base > 0.03 {
		t.Errorf("disk accesses differ by order: DFS %g vs level %g",
			dfs.DiskPerQuery.Mean, lvl.DiskPerQuery.Mean)
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
		traced := runTraced(t, tr, w, cfg)
		mbr := runMBR(t, tr, w, cfg)
		if traced.NodesPerQuery.Mean != mbr.NodesPerQuery.Mean {
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
	res := runTraced(t, tr, UniformPoints{}, cfg)
	base := runTraced(t, tr, UniformPoints{}, Config{
		BufferSize: 30, Batches: 3, BatchSize: 5000, Seed: 55,
	})
	if res.DiskPerQuery.Mean > base.DiskPerQuery.Mean+0.01 {
		t.Errorf("pinning hurt: %g vs %g", res.DiskPerQuery.Mean, base.DiskPerQuery.Mean)
	}
}

// A traced source runs under the same driver as Run, so it honours the
// whole Config: a non-LRU Policy changes the result and lands where the
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

	lru := runTraced(t, tr, w, lruCfg)
	clock := runTraced(t, tr, w, clockCfg)
	if clock.DiskPerQuery.Mean == lru.DiskPerQuery.Mean {
		t.Errorf("CLOCK and LRU traced runs both report %g disk accesses: Policy ignored", lru.DiskPerQuery.Mean)
	}
	mbr := runMBR(t, tr, w, clockCfg)
	base := math.Max(mbr.DiskPerQuery.Mean, 0.05)
	if math.Abs(clock.DiskPerQuery.Mean-mbr.DiskPerQuery.Mean)/base > 0.03 {
		t.Errorf("CLOCK: traced %g vs MBR-list %g disk accesses",
			clock.DiskPerQuery.Mean, mbr.DiskPerQuery.Mean)
	}

	reg := obs.NewRegistry()
	withMetrics := clockCfg
	withMetrics.Metrics = reg
	observed := runTraced(t, tr, w, withMetrics)
	if !reflect.DeepEqual(observed, clock) {
		t.Errorf("metrics changed the result:\n with    %+v\n without %+v", observed, clock)
	}
	want := float64(clockCfg.Batches * clockCfg.BatchSize)
	if got, ok := snapValue(t, reg, "sim_queries_total"); !ok || got != want {
		t.Errorf("sim_queries_total = %v (ok=%v), want %v", got, ok, want)
	}
}

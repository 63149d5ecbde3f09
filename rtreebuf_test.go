package rtreebuf_test

import (
	"math"
	"math/rand/v2"
	"path/filepath"
	"testing"

	"rtreebuf"
	"rtreebuf/internal/datagen"
)

// TestEndToEnd exercises the whole public surface the way a downstream
// user would: generate data, bulk-load, persist to a page file, reopen
// through a buffer pool, run a workload counting real page misses, and
// check the cost model predicted that measurement.
func TestEndToEnd(t *testing.T) {
	const (
		nodeCap     = 50
		bufferPages = 150
		querySide   = 0.05
	)
	rects := datagen.TIGERLike(15000, 42)
	items := datagen.Items(rects)

	tree, err := rtreebuf.Load(rtreebuf.HilbertSort, rtreebuf.Params{MaxEntries: nodeCap}, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	qm, err := rtreebuf.NewUniformQueries(querySide, querySide)
	if err != nil {
		t.Fatal(err)
	}
	pred := rtreebuf.NewPredictor(tree.Levels(), qm)
	predicted := pred.DiskAccesses(bufferPages)

	// Persist and reopen.
	path := filepath.Join(t.TempDir(), "tree.rt")
	dm, err := rtreebuf.CreateDiskFile(path, rtreebuf.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := rtreebuf.SaveTree(dm, tree); err != nil {
		t.Fatal(err)
	}
	if err := dm.Close(); err != nil {
		t.Fatal(err)
	}
	dm2, err := rtreebuf.OpenDiskFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dm2.Close()
	paged, err := rtreebuf.OpenPagedTree(dm2, bufferPages)
	if err != nil {
		t.Fatal(err)
	}

	// Reloaded tree answers queries identically.
	reloaded, err := rtreebuf.LoadTreeFromDisk(dm2)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != tree.Len() || reloaded.NodeCount() != tree.NodeCount() {
		t.Fatal("reload changed the tree")
	}

	// Drive the workload through the pool.
	rng := rand.New(rand.NewPCG(7, 8))
	const warm, measured = 3000, 12000
	for i := 0; i < warm+measured; i++ {
		if i == warm {
			paged.Pool().ResetStats()
		}
		x := querySide + rng.Float64()*(1-querySide)
		y := querySide + rng.Float64()*(1-querySide)
		q := rtreebuf.Rect{MinX: x - querySide, MinY: y - querySide, MaxX: x, MaxY: y}
		hits, err := paged.SearchWindow(q)
		if err != nil {
			t.Fatal(err)
		}
		// Cross-check result correctness occasionally.
		if i%1000 == 0 {
			if want := tree.CountWindow(q); len(hits) != want {
				t.Fatalf("paged search returned %d, in-memory %d", len(hits), want)
			}
		}
	}
	_, misses, _ := paged.Pool().Stats()
	measuredPerQuery := float64(misses) / float64(measured)

	// The model treats node accesses as independent and ignores that a
	// real search always reads the root and only descends into visited
	// parents; 25% agreement end-to-end is the realistic expectation
	// (the MBR-list simulator agrees with the model far tighter — see
	// internal/sim tests).
	if predicted <= 0 || measuredPerQuery <= 0 {
		t.Fatalf("degenerate: predicted %g, measured %g", predicted, measuredPerQuery)
	}
	rel := math.Abs(predicted-measuredPerQuery) / measuredPerQuery
	if rel > 0.25 {
		t.Errorf("model %g vs end-to-end measurement %g (%.0f%% off)",
			predicted, measuredPerQuery, 100*rel)
	}
}

// TestFacadeSimulation checks the re-exported simulation workloads.
func TestFacadeSimulation(t *testing.T) {
	points := datagen.SyntheticPoints(5000, 3)
	tree, err := rtreebuf.Load(rtreebuf.STR, rtreebuf.Params{MaxEntries: 25}, datagen.PointItems(points))
	if err != nil {
		t.Fatal(err)
	}
	levels := tree.Levels()

	qm, _ := rtreebuf.NewUniformQueries(0, 0)
	pred := rtreebuf.NewPredictor(levels, qm)

	res, err := rtreebuf.Simulate(levels, rtreebuf.SimUniformPoints(), rtreebuf.SimConfig{
		BufferSize: 40, Batches: 8, BatchSize: 10000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	model := pred.DiskAccesses(40)
	if math.Abs(model-res.DiskPerQuery.Mean) > 0.08*res.DiskPerQuery.Mean+0.01 {
		t.Errorf("model %g vs sim %g", model, res.DiskPerQuery.Mean)
	}

	// The parallel facade with one worker reproduces Simulate bit for
	// bit, and with several workers stays within the same model band.
	one, err := rtreebuf.SimulateParallel(levels, rtreebuf.SimUniformPoints(), rtreebuf.SimConfig{
		BufferSize: 40, Batches: 8, BatchSize: 10000, Seed: 5, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if one.DiskPerQuery.Mean != res.DiskPerQuery.Mean {
		t.Errorf("SimulateParallel(Workers=1) %g != Simulate %g", one.DiskPerQuery.Mean, res.DiskPerQuery.Mean)
	}
	par, err := rtreebuf.SimulateParallel(levels, rtreebuf.SimUniformPoints(), rtreebuf.SimConfig{
		BufferSize: 40, Batches: 8, BatchSize: 10000, Seed: 5, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(model-par.DiskPerQuery.Mean) > 0.08*par.DiskPerQuery.Mean+0.01 {
		t.Errorf("model %g vs parallel sim %g", model, par.DiskPerQuery.Mean)
	}

	// Region and data-driven workload constructors.
	if _, err := rtreebuf.SimUniformRegions(0.1, 0.1); err != nil {
		t.Error(err)
	}
	if _, err := rtreebuf.SimDataDriven(0, 0, points); err != nil {
		t.Error(err)
	}
	if _, err := rtreebuf.SimUniformRegions(2, 0); err == nil {
		t.Error("invalid region size accepted")
	}
}

// TestFacadeND exercises the d-dimensional facade.
func TestFacadeND(t *testing.T) {
	items := make([]rtreebuf.NDItem, 0, 1000)
	rng := rand.New(rand.NewPCG(5, 6))
	for i := 0; i < 1000; i++ {
		p := rtreebuf.NDPoint{rng.Float64(), rng.Float64(), rng.Float64()}
		min := append(rtreebuf.NDPoint(nil), p...)
		max := append(rtreebuf.NDPoint(nil), p...)
		items = append(items, rtreebuf.NDItem{
			Rect: rtreebuf.NDRect{Min: min, Max: max},
			ID:   int64(i),
		})
	}
	tree, err := rtreebuf.LoadND(rtreebuf.NDParams{Dims: 3, MaxEntries: 16}, items)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 1000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	pred, err := rtreebuf.NewNDPredictor(tree.Levels(), []float64{0.1, 0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if pred.NodesVisited() <= 0 {
		t.Errorf("ND EPT = %g", pred.NodesVisited())
	}
	if pred.DiskAccesses(pred.NodeCount()+1) != 0 {
		t.Error("full ND buffer still misses")
	}
	if got := len(tree.SearchPoint(items[0].Rect.Center())); got < 1 {
		t.Errorf("ND point search found %d", got)
	}
}

// TestFacadeTypes exercises the remaining facade constructors.
func TestFacadeTypes(t *testing.T) {
	tr, err := rtreebuf.NewTree(rtreebuf.Params{MaxEntries: 8})
	if err != nil {
		t.Fatal(err)
	}
	tr.Insert(rtreebuf.Item{Rect: rtreebuf.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, ID: 1})
	if got := tr.SearchPoint(rtreebuf.Point{X: 0.15, Y: 0.15}); len(got) != 1 {
		t.Errorf("facade search = %v", got)
	}

	lru := rtreebuf.NewLRU(2, 5)
	if lru.Access(1) {
		t.Error("fresh access hit")
	}

	dm, err := rtreebuf.NewMemoryDisk(rtreebuf.DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := rtreebuf.SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	back, err := rtreebuf.LoadTreeFromDisk(dm)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 {
		t.Errorf("round trip len = %d", back.Len())
	}

	if !rtreebuf.UnitSquare.ContainsPoint(rtreebuf.Point{X: 0.5, Y: 0.5}) {
		t.Error("unit square broken")
	}
}

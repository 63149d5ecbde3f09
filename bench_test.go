// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the design choices DESIGN.md calls out. Each
// paper-artifact benchmark runs the corresponding experiment at quick
// scale per iteration (full scale is cmd/rtreebench's job); the reported
// ns/op is the cost of regenerating that artifact.
//
//	go test -bench=Table -benchmem       # the validation + level tables
//	go test -bench=Fig .                 # every figure
//	go test -bench=Ablation .            # design-choice ablations
package rtreebuf_test

import (
	"testing"

	"rtreebuf"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/experiments"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := experiments.Config{Quick: true, SimBatches: 5, SimBatchSize: 5000}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkTable1Validation regenerates Table 1: model vs simulation
// average disk accesses per point query across buffer sizes.
func BenchmarkTable1Validation(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkTable2TreeBuild regenerates Table 2: nodes per level of the
// pinning-study trees.
func BenchmarkTable2TreeBuild(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkFig5CFDPlot regenerates Fig. 5: the CFD data set density view.
func BenchmarkFig5CFDPlot(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6BufferSweep regenerates Fig. 6: disk accesses vs buffer
// size for TAT/NX/HS on Long Beach data, point and 1% region queries.
func BenchmarkFig6BufferSweep(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7UniformVsDataDriven regenerates Fig. 7 (Long Beach).
func BenchmarkFig7UniformVsDataDriven(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8CFD regenerates Fig. 8 (CFD data).
func BenchmarkFig8CFD(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9DataSizeSweep regenerates Fig. 9: nodes visited vs disk
// accesses across data-set sizes.
func BenchmarkFig9DataSizeSweep(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10Pinning regenerates Fig. 10: pinning effect across data
// sizes and buffer capacities.
func BenchmarkFig10Pinning(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11PinningSweeps regenerates Fig. 11: pinning benefit vs
// buffer size and vs region query size.
func BenchmarkFig11PinningSweeps(b *testing.B) { benchExperiment(b, "fig11") }

// --- Extension experiments (beyond the paper; see DESIGN.md) ---

// BenchmarkExtLoading regenerates the six-algorithm loading comparison
// (adds R*, linear-split TAT, and STR to the paper's three).
func BenchmarkExtLoading(b *testing.B) { benchExperiment(b, "ext-loading") }

// BenchmarkExtWarmup regenerates the warm-up transient validation.
func BenchmarkExtWarmup(b *testing.B) { benchExperiment(b, "ext-warmup") }

// BenchmarkExtStaticLRU regenerates the LRU vs static hot-set study.
func BenchmarkExtStaticLRU(b *testing.B) { benchExperiment(b, "ext-staticlru") }

// BenchmarkExtDimensions regenerates the d-dimensional generalization
// study (2..5 dimensions, model + simulation).
func BenchmarkExtDimensions(b *testing.B) { benchExperiment(b, "ext-dimensions") }

// BenchmarkExtValidation regenerates the region/data-driven validation.
func BenchmarkExtValidation(b *testing.B) { benchExperiment(b, "ext-validation") }

// BenchmarkExtLocality regenerates the query-locality boundary study.
func BenchmarkExtLocality(b *testing.B) { benchExperiment(b, "ext-locality") }

// BenchmarkExtSystem regenerates the model/simulation/paged-system
// three-way comparison.
func BenchmarkExtSystem(b *testing.B) { benchExperiment(b, "ext-system") }

// BenchmarkExtClock regenerates the LRU-model-vs-CLOCK study.
func BenchmarkExtClock(b *testing.B) { benchExperiment(b, "ext-clock") }

// BenchmarkExtPolicy regenerates the 2Q/Clock-Pro/sharded model
// validation study.
func BenchmarkExtPolicy(b *testing.B) { benchExperiment(b, "ext-policy") }

// BenchmarkExtKNN regenerates the kNN-workload pricing study.
func BenchmarkExtKNN(b *testing.B) { benchExperiment(b, "ext-knn") }

// BenchmarkExtNodeSize regenerates the fanout/byte-budget study.
func BenchmarkExtNodeSize(b *testing.B) { benchExperiment(b, "ext-nodesize") }

// --- Ablation benches (design choices, not paper artifacts) ---

func ablationItems(n int) []rtree.Item {
	return datagen.Items(datagen.TIGERLike(n, 17))
}

// BenchmarkAblationSplit compares the insertion heuristics — Guttman's
// quadratic and linear splits and the R* split with forced reinsertion —
// on build cost (tree quality is asserted in the rtree/pack tests; the
// paper's TAT uses quadratic).
func BenchmarkAblationSplit(b *testing.B) {
	items := ablationItems(5000)
	for _, alg := range []pack.Algorithm{pack.TATQuadratic, pack.TATLinear, pack.RStar} {
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pack.Load(alg, rtree.Params{MaxEntries: 50}, items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPacking compares the bulk loaders' build cost.
func BenchmarkAblationPacking(b *testing.B) {
	items := ablationItems(50000)
	for _, alg := range []pack.Algorithm{pack.NearestX, pack.HilbertSort, pack.STR} {
		b.Run(string(alg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pack.Load(alg, rtree.Params{MaxEntries: 100}, items); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationHilbertOrder measures how the Hilbert curve order
// (grid resolution of the sort key) affects HS build cost; tree quality
// differences are negligible past order 8 for 50k rectangles, which is
// why DefaultOrder = 16 is safe.
func BenchmarkAblationHilbertOrder(b *testing.B) {
	items := ablationItems(20000)
	for _, order := range []uint{8, 16, 24} {
		b.Run(map[uint]string{8: "order8", 16: "order16", 24: "order24"}[order], func(b *testing.B) {
			ord := pack.HilbertOrdering(order)
			for i := 0; i < b.N; i++ {
				if _, err := rtree.Pack(rtree.Params{MaxEntries: 100}, items, ord); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryThroughPool measures end-to-end buffered query cost: one
// window query against a persisted tree through the LRU pool.
func BenchmarkQueryThroughPool(b *testing.B) {
	items := ablationItems(20000)
	tree, err := rtreebuf.Load(rtreebuf.HilbertSort, rtreebuf.Params{MaxEntries: 100}, items)
	if err != nil {
		b.Fatal(err)
	}
	dm, err := rtreebuf.NewMemoryDisk(rtreebuf.DefaultPageSize)
	if err != nil {
		b.Fatal(err)
	}
	if err := rtreebuf.SaveTree(dm, tree); err != nil {
		b.Fatal(err)
	}
	paged, err := rtreebuf.OpenPagedTree(dm, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i%997) / 997
		y := float64(i%991) / 991
		q := rtreebuf.Rect{MinX: x, MinY: y, MaxX: x + 0.02, MaxY: y + 0.02}
		if _, err := paged.SearchWindow(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelEvaluation measures one full cost-model evaluation
// (probability pass plus a buffer-size sweep) — the "simple and quick to
// solve" claim of the paper's conclusion.
func BenchmarkModelEvaluation(b *testing.B) {
	items := ablationItems(50000)
	tree, err := rtreebuf.Load(rtreebuf.HilbertSort, rtreebuf.Params{MaxEntries: 100}, items)
	if err != nil {
		b.Fatal(err)
	}
	levels := tree.Levels()
	qm, _ := rtreebuf.NewUniformQueries(0.1, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := rtreebuf.NewPredictor(levels, qm)
		for _, bs := range []int{10, 50, 100, 200, 500} {
			_ = pred.DiskAccesses(bs)
		}
	}
}

// BenchmarkDiskAccessesSweep compares the batched buffer-size sweep
// against evaluating the model independently per size over a dense
// figure-style grid (the shape every fig6/fig9/fig11 panel evaluates).
// Both share the Predictor's probability-log pass; the sweep also
// warm-starts each N* search from the previous size's, so "sweep" should
// stay ahead of "per-size" while producing bit-identical values (asserted
// in internal/core tests).
func BenchmarkDiskAccessesSweep(b *testing.B) {
	items := ablationItems(50000)
	tree, err := rtreebuf.Load(rtreebuf.HilbertSort, rtreebuf.Params{MaxEntries: 100}, items)
	if err != nil {
		b.Fatal(err)
	}
	levels := tree.Levels()
	qm, _ := rtreebuf.NewUniformQueries(0.1, 0.1)
	pred := rtreebuf.NewPredictor(levels, qm)
	bufs := make([]int, 0, 60)
	for bs := 10; bs <= 600; bs += 10 {
		bufs = append(bufs, bs)
	}
	b.Run("per-size", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, bs := range bufs {
				_ = pred.DiskAccesses(bs)
			}
		}
	})
	b.Run("sweep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = pred.DiskAccessesSweep(bufs)
		}
	})
}

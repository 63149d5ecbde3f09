package experiments

import (
	"math/rand/v2"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/sim"
)

func init() {
	register("ext-knn",
		"Extension: pricing k-nearest-neighbor workloads with the buffer — pages touched and disk accesses vs k and buffer size",
		runExtKNN)
}

// runExtKNN measures what the analytic model cannot derive in closed form
// (kNN access probabilities depend on the data distribution through the
// k-th-neighbor distance) but the machinery still prices empirically:
// traced best-first kNN searches replayed against an LRU. Two panels:
// pages touched per query vs k (buffer-independent), and disk accesses
// per query vs buffer size at fixed k, next to window queries of roughly
// equal result size for comparison.
func runExtKNN(cfg Config) (*Report, error) {
	rects := cfg.tigerRects()
	items := itemsOf(rects)
	t, err := buildTree(pack.HilbertSort, items, 100)
	if err != nil {
		return nil, err
	}
	pages := t.AssignPageIDs()

	queries := 20000
	if cfg.Quick {
		queries = 4000
	}

	rep := &Report{ID: "ext-knn", Title: "kNN workloads under the buffer"}

	// Panel 1: pages touched per kNN query as k grows.
	touched := Table{
		Name:    "ext-knn pages touched",
		Caption: "Average tree pages read per kNN query (no buffer effect; HS tree, node size 100).",
		Columns: []string{"k", "pages_per_query"},
	}
	rng := rand.New(rand.NewPCG(cfg.seed(), 0x1111))
	for _, k := range []int{1, 5, 10, 50, 100} {
		total := 0
		for q := 0; q < queries/4; q++ {
			p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
			t.TraceNearest(p, k, func(rtree.NodeVisit) { total++ })
		}
		touched.AddRow(FInt(k), F(float64(total)/float64(queries/4)))
	}
	rep.Tables = append(rep.Tables, touched)

	// Panel 2: disk accesses per query vs buffer, kNN(k=10) alongside a
	// window workload, both replayed through the same LRU machinery.
	disk := Table{
		Name:    "ext-knn disk accesses",
		Caption: "Disk accesses per query through an LRU (kNN k=10 vs 0.02x0.02 window queries).",
		Columns: []string{"buffer", "knn10", "window_0.02"},
	}
	levelOf := t.PageLevels()
	for _, b := range []int{10, 25, 50, 100, 200} {
		if b >= pages {
			continue
		}
		knn, err := replay(levelOf, b, queries, cfg.seed()+uint64(b), func(p geom.Point, visit func(rtree.NodeVisit)) {
			t.TraceNearest(p, 10, visit)
		})
		if err != nil {
			return nil, err
		}
		win, err := replay(levelOf, b, queries, cfg.seed()+uint64(b), func(p geom.Point, visit func(rtree.NodeVisit)) {
			q := geom.RectAround(p, 0.02, 0.02)
			t.TraceWindow(q, visit)
		})
		if err != nil {
			return nil, err
		}
		disk.AddRow(FInt(b), F(knn), F(win))
	}
	rep.Tables = append(rep.Tables, disk)

	rep.Notes = append(rep.Notes,
		"kNN page counts grow slowly with k (one extra leaf per ~node-capacity results): best-first descent behaves like a point query with a small tail",
		"consequently kNN workloads cache like the paper's point queries, not like region queries")
	return rep, nil
}

// replay runs traced searches for uniformly placed query points through
// the simulator's LRU loop — a quarter of queries as warm-up, then one
// batch of queries — and returns the misses per measured query.
func replay(levelOf []int, bufferSize, queries int, seed uint64, search func(geom.Point, func(rtree.NodeVisit))) (float64, error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x2222))
	next := func(dst []int32) []int32 {
		search(geom.Point{X: rng.Float64(), Y: rng.Float64()}, func(v rtree.NodeVisit) {
			dst = append(dst, int32(v.Page))
		})
		return dst
	}
	res, err := sim.RunSource(next, levelOf, sim.Config{
		BufferSize: bufferSize, Batches: 1, BatchSize: queries, Warmup: queries / 4,
	})
	return res.DiskPerQuery.Mean, err
}

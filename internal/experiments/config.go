package experiments

import (
	"fmt"

	"rtreebuf/internal/core"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

// Config scales the experiments. The zero value reproduces the paper at
// full data sizes with fast-but-sound simulation defaults; Quick shrinks
// everything for unit tests and smoke benchmarks.
type Config struct {
	// Quick shrinks data sizes and simulation lengths by roughly an order
	// of magnitude, for tests. Curve shapes survive; absolute values move.
	Quick bool
	// Seed drives every generator; zero is a fixed default so published
	// outputs are reproducible.
	Seed uint64
	// SimBatches/SimBatchSize override the validation simulation effort
	// (paper: 20 x 1,000,000). Zero selects 20 x 50,000 (Quick: 10 x 5,000).
	SimBatches   int
	SimBatchSize int
	// Policy selects the buffer replacement policy for experiments that
	// drive a real paged tree (ext-system): one of buffer.PolicyNames.
	// Empty means the LRU the paper models. Policy-comparison experiments
	// (ext-clock, ext-policy) enumerate policies themselves and ignore it.
	Policy string
	// Shards selects the paged-tree pool shard count for the same
	// experiments; <= 1 means the single-goroutine Pool.
	Shards int
	// Metrics, when non-nil, receives engine observability: per-experiment
	// wall time and build-cache hit/miss counts. Reports stay byte-
	// identical with or without it.
	Metrics *obs.Registry
	// Monitor enables the online model-residual monitor in experiments
	// that drive a real paged tree (ext-system): each buffer size gets a
	// windowed drift detector comparing live pool counters against the
	// model, reported as an extra table. The default tables stay
	// byte-identical whether or not it is set.
	Monitor bool

	// cache deduplicates dataset generation and tree packing across
	// experiments; set by RunAll, nil (build fresh) for direct Run calls.
	cache *buildCache
	// workers is the engine's worker budget, used by forEachPoint to run
	// independent sweep points concurrently; zero/one means serial.
	workers int
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 1998 // year of the ICDE paper
	}
	return c.Seed
}

func (c Config) simBatches() int {
	if c.SimBatches > 0 {
		return c.SimBatches
	}
	if c.Quick {
		return 10
	}
	return 20
}

func (c Config) simBatchSize() int {
	if c.SimBatchSize > 0 {
		return c.SimBatchSize
	}
	if c.Quick {
		return 5000
	}
	return 50000
}

// scale shrinks a data-set size in Quick mode.
func (c Config) scale(n int) int {
	if c.Quick {
		n /= 8
		if n < 1000 {
			n = 1000
		}
	}
	return n
}

// tigerKey is the cache identity of the TIGER-like data set.
func (c Config) tigerKey() dataKey {
	return dataKey{kind: "tiger", n: c.scale(datagen.TIGERLikeSize), seed: c.seed()}
}

// tigerRects returns the TIGER-like data set at the paper's size.
func (c Config) tigerRects() []geom.Rect {
	k := c.tigerKey()
	v, _ := c.cache.get(k, func() (any, error) {
		return datagen.TIGERLike(k.n, k.seed), nil
	})
	return v.([]geom.Rect)
}

// cfdKey is the cache identity of the CFD-like data set.
func (c Config) cfdKey() dataKey {
	return dataKey{kind: "cfd", n: c.scale(datagen.CFDLikeSize), seed: c.seed()}
}

// cfdPoints returns the CFD-like data set at the paper's size.
func (c Config) cfdPoints() []geom.Point {
	k := c.cfdKey()
	v, _ := c.cache.get(k, func() (any, error) {
		return datagen.CFDLike(k.n, k.seed), nil
	})
	return v.([]geom.Point)
}

// synthPoints returns (and caches) a synthetic point set.
func (c Config) synthPoints(n int, seed uint64) []geom.Point {
	k := dataKey{kind: "spoints", n: n, seed: seed}
	v, _ := c.cache.get(k, func() (any, error) {
		return datagen.SyntheticPoints(n, seed), nil
	})
	return v.([]geom.Point)
}

// synthRegions returns (and caches) a synthetic region set.
func (c Config) synthRegions(n int, seed uint64) []geom.Rect {
	k := dataKey{kind: "sregions", n: n, seed: seed}
	v, _ := c.cache.get(k, func() (any, error) {
		return datagen.SyntheticRegions(n, seed), nil
	})
	return v.([]geom.Rect)
}

// cachedTree packs (and caches) a tree over the identified data set.
// Cached trees are shared across experiments and MUST be treated as
// read-only; experiments that mutate a tree (page-ID assignment, storage
// saves) must build a private one with buildTree instead.
func (c Config) cachedTree(data dataKey, alg pack.Algorithm, capacity int, items func() []rtree.Item) (*rtree.Tree, error) {
	k := treeKey{data: data, alg: string(alg), capacity: capacity}
	v, err := c.cache.get(k, func() (any, error) {
		return buildTree(alg, items(), capacity)
	})
	if err != nil {
		return nil, err
	}
	return v.(*rtree.Tree), nil
}

// tigerTree returns the shared read-only tree over the TIGER-like set.
func (c Config) tigerTree(alg pack.Algorithm, capacity int) (*rtree.Tree, error) {
	return c.cachedTree(c.tigerKey(), alg, capacity, func() []rtree.Item {
		return itemsOf(c.tigerRects())
	})
}

// cfdTree returns the shared read-only tree over the CFD-like set.
func (c Config) cfdTree(alg pack.Algorithm, capacity int) (*rtree.Tree, error) {
	return c.cachedTree(c.cfdKey(), alg, capacity, func() []rtree.Item {
		return itemsOf(geom.PointRects(c.cfdPoints()))
	})
}

// synthPointsTree returns the shared read-only tree over a synthetic
// point set.
func (c Config) synthPointsTree(n int, seed uint64, alg pack.Algorithm, capacity int) (*rtree.Tree, error) {
	k := dataKey{kind: "spoints", n: n, seed: seed}
	return c.cachedTree(k, alg, capacity, func() []rtree.Item {
		return datagen.PointItems(c.synthPoints(n, seed))
	})
}

// synthRegionsTree returns the shared read-only tree over a synthetic
// region set.
func (c Config) synthRegionsTree(n int, seed uint64, alg pack.Algorithm, capacity int) (*rtree.Tree, error) {
	k := dataKey{kind: "sregions", n: n, seed: seed}
	return c.cachedTree(k, alg, capacity, func() []rtree.Item {
		return itemsOf(c.synthRegions(n, seed))
	})
}

// buildTree loads items with alg at node capacity cap and validates the
// result; every experiment goes through here so a structurally broken tree
// can never produce a plausible-looking table.
func buildTree(alg pack.Algorithm, items []rtree.Item, capacity int) (*rtree.Tree, error) {
	t, err := pack.Load(alg, rtree.Params{MaxEntries: capacity}, items)
	if err != nil {
		return nil, fmt.Errorf("experiments: loading %s: %w", alg, err)
	}
	if err := t.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("experiments: %s produced invalid tree: %w", alg, err)
	}
	return t, nil
}

// uniformPredictor builds a cost-model predictor for uniform qx x qy
// queries over the tree.
func uniformPredictor(t *rtree.Tree, qx, qy float64) (*core.Predictor, error) {
	qm, err := core.NewUniformQueries(qx, qy)
	if err != nil {
		return nil, err
	}
	return core.NewPredictor(t.Levels(), qm), nil
}

// dataDrivenPredictor builds a predictor for the data-driven query model
// over the given data centers.
func dataDrivenPredictor(t *rtree.Tree, qx, qy float64, centers []geom.Point) (*core.Predictor, error) {
	qm, err := core.NewDataDrivenQueries(qx, qy, centers, 0)
	if err != nil {
		return nil, err
	}
	return core.NewPredictor(t.Levels(), qm), nil
}

// itemsOf wraps rectangles as R-tree items (ID = index).
func itemsOf(rects []geom.Rect) []rtree.Item { return datagen.Items(rects) }

// paperAlgorithms returns the three loading algorithms the paper compares.
func paperAlgorithms() []pack.Algorithm { return pack.PaperAlgorithms() }

// algoLabel gives the paper's name for an algorithm.
func algoLabel(alg pack.Algorithm) string {
	switch alg {
	case pack.TATQuadratic:
		return "TAT"
	case pack.TATLinear:
		return "TAT-linear"
	case pack.NearestX:
		return "NX"
	case pack.HilbertSort:
		return "HS"
	case pack.STR:
		return "STR"
	default:
		return string(alg)
	}
}

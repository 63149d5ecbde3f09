// Package rtreebuf is a reproduction of Leutenegger & López, "The Effect
// of Buffering on the Performance of R-Trees" (ICDE 1998 / IEEE TKDE
// 12(1), 2000): an R-tree library with the paper's loading algorithms, an
// LRU buffer substrate, and — the paper's contribution — a buffer-aware
// analytic cost model that predicts *disk accesses* per query rather than
// nodes visited.
//
// This root package is a facade: it re-exports the stable public API via
// type aliases so downstream users import a single path, while the
// implementation lives in focused internal packages.
//
// A minimal end-to-end use:
//
//	data := datagen-style items ...            // your rectangles
//	tree, _ := rtreebuf.Load(rtreebuf.HilbertSort, rtreebuf.Params{MaxEntries: 100}, data)
//	qm, _ := rtreebuf.NewUniformQueries(0.1, 0.1)
//	pred := rtreebuf.NewPredictor(tree.Levels(), qm)
//	fmt.Println(pred.DiskAccesses(200))        // predicted disk I/Os per query
//
// See the examples/ directory for complete programs and DESIGN.md for the
// system inventory.
package rtreebuf

import (
	"rtreebuf/internal/buffer"
	"rtreebuf/internal/core"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/nd"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/sim"
	"rtreebuf/internal/storage"
)

// Geometry primitives.
type (
	// Point is a location in the unit square.
	Point = geom.Point
	// Rect is an axis-parallel rectangle.
	Rect = geom.Rect
)

// UnitSquare is the normalized data space of the paper.
var UnitSquare = geom.UnitSquare

// R-tree types.
type (
	// Tree is an R-tree (Guttman insertion, packed loading, search).
	Tree = rtree.Tree
	// Params configures node capacity, minimum fill, and split heuristic.
	Params = rtree.Params
	// Item is one stored data rectangle with its identifier.
	Item = rtree.Item
	// SplitAlgorithm selects Guttman's quadratic or linear split.
	SplitAlgorithm = rtree.SplitAlgorithm
)

// Split heuristics.
const (
	SplitQuadratic = rtree.SplitQuadratic
	SplitLinear    = rtree.SplitLinear
)

// NewTree returns an empty R-tree for tuple-at-a-time insertion.
func NewTree(p Params) (*Tree, error) { return rtree.New(p) }

// Neighbor is one k-nearest-neighbor result (see Tree.Nearest).
type Neighbor = rtree.Neighbor

// Loading algorithms (Section 2.2 of the paper, plus STR).
type Algorithm = pack.Algorithm

// The loading algorithms.
const (
	TAT         = pack.TATQuadratic
	NearestX    = pack.NearestX
	HilbertSort = pack.HilbertSort
	STR         = pack.STR
)

// Load builds an R-tree over items with the named loading algorithm.
func Load(alg Algorithm, p Params, items []Item) (*Tree, error) {
	return pack.Load(alg, p, items)
}

// Cost model (the paper's contribution).
type (
	// Predictor evaluates the buffer-aware cost model for one tree and
	// query distribution.
	Predictor = core.Predictor
	// QueryModel maps a node MBR to its per-query access probability.
	QueryModel = core.QueryModel
	// UniformQueries is the boundary-corrected uniform model (Sec. 3.1).
	UniformQueries = core.UniformQueries
	// DataDrivenQueries mimics the data distribution (Sec. 3.2).
	DataDrivenQueries = core.DataDrivenQueries
)

// NewPredictor evaluates a query model over tree geometry (Tree.Levels).
func NewPredictor(levels [][]Rect, qm QueryModel) *Predictor {
	return core.NewPredictor(levels, qm)
}

// NewUniformQueries returns the uniform model for qx x qy queries.
func NewUniformQueries(qx, qy float64) (UniformQueries, error) {
	return core.NewUniformQueries(qx, qy)
}

// NewDataDrivenQueries returns the data-driven model over data centers.
func NewDataDrivenQueries(qx, qy float64, centers []Point) (DataDrivenQueries, error) {
	return core.NewDataDrivenQueries(qx, qy, centers, 0)
}

// Fully analytical model (Theodoridis–Sellis-style): predict cost from
// data properties alone, no tree required. Extension — see internal/core.
type (
	// AnalyticalParams describes a data set and tree shape abstractly.
	AnalyticalParams = core.AnalyticalParams
	// AnalyticalPredictor predicts EPT and buffer-aware EDT analytically.
	AnalyticalPredictor = core.AnalyticalPredictor
)

// NewAnalyticalPredictor evaluates the fully analytical model for a
// uniform qx x qy query workload.
func NewAnalyticalPredictor(p AnalyticalParams, qx, qy float64) (*AnalyticalPredictor, error) {
	return core.NewAnalyticalPredictor(p, qx, qy)
}

// d-dimensional generalization (Sections 2.1/3 of the paper assert it is
// straightforward; package internal/nd demonstrates it). The N-D tree is
// packed and read-only — LoadND builds it, SearchWindow/SearchPoint and
// Levels read it — because that is all the cost model needs; dynamic
// insertion and deletion exist in two dimensions only.
type (
	// NDPoint is a d-dimensional location.
	NDPoint = nd.Point
	// NDRect is a d-dimensional axis-parallel box.
	NDRect = nd.Rect
	// NDItem is a stored d-dimensional box with identifier.
	NDItem = nd.Item
	// NDParams configures a d-dimensional R-tree.
	NDParams = nd.Params
	// NDTree is a packed, read-only d-dimensional R-tree.
	NDTree = nd.Tree
	// NDPredictor evaluates the cost model in d dimensions. It is
	// core.Predictor — the same type as Predictor: only the access
	// probabilities depend on dimension, the buffer model does not.
	NDPredictor = core.Predictor
)

// LoadND bulk-loads a d-dimensional tree with Hilbert-sort packing.
func LoadND(p NDParams, items []NDItem) (*NDTree, error) {
	return nd.Pack(p, items, nd.HilbertOrdering(p.Dims))
}

// NewNDPredictor evaluates the d-dimensional uniform query model (query
// extents q, one per dimension) over a tree's levels.
func NewNDPredictor(levels [][]NDRect, q []float64) (*NDPredictor, error) {
	qm, err := nd.NewUniformQueries(q)
	if err != nil {
		return nil, err
	}
	return nd.NewPredictor(levels, qm), nil
}

// Buffering substrate.
type (
	// LRU is the least-recently-used page cache with pinning.
	LRU = buffer.LRU
	// Clock is the second-chance approximation of LRU.
	Clock = buffer.Clock
	// TwoQ is the scan-resistant 2Q policy (A1in/A1out/Am).
	TwoQ = buffer.TwoQ
	// ClockPro is the adaptive hot/cold Clock-Pro policy.
	ClockPro = buffer.ClockPro
	// PolicyFactory builds a replacement policy for a pool.
	PolicyFactory = buffer.PolicyFactory
	// PageSource supplies page contents on a buffer miss.
	PageSource = buffer.PageSource
	// Pool serves page contents through a replacement policy over a
	// page source. It has no lock: one goroutine at a time. It is the
	// pool that takes writes (Put, FlushDirty).
	Pool = buffer.Pool
	// ShardedPool is the lock-striped pool for concurrent readers of an
	// immutable source (with any shard count, 1 included): pages hash
	// to shards, each with its own policy instance and mutex. It has
	// no write side.
	ShardedPool = buffer.ShardedPool
	// PagePool is the read-side interface both pool flavors satisfy.
	PagePool = buffer.PagePool
)

// NewLRU returns an LRU cache of capacity pages over [0, numPages).
func NewLRU(capacity, numPages int) *LRU { return buffer.NewLRU(capacity, numPages) }

// NewClock returns a Clock cache of capacity pages over [0, numPages).
func NewClock(capacity, numPages int) *Clock { return buffer.NewClock(capacity, numPages) }

// NewTwoQ returns a 2Q cache with the default Kin/Kout tuning.
func NewTwoQ(capacity, numPages int) *TwoQ { return buffer.NewTwoQ(capacity, numPages) }

// NewClockPro returns a Clock-Pro cache of capacity pages.
func NewClockPro(capacity, numPages int) *ClockPro { return buffer.NewClockPro(capacity, numPages) }

// PolicyNames lists the replacement policies FactoryFor accepts.
func PolicyNames() []string { return buffer.PolicyNames() }

// FactoryFor resolves a policy name ("lru", "clock", "2q", "clockpro";
// empty means LRU) to its factory.
func FactoryFor(name string) (PolicyFactory, error) { return buffer.FactoryFor(name) }

// NewBufferPool returns the single-goroutine pool (no lock) with the
// given policy factory (nil = LRU); concurrent readers use
// NewShardedPool, whose shards may be 1.
func NewBufferPool(src PageSource, capacity, numPages int, factory PolicyFactory) *Pool {
	return buffer.NewPoolWith(src, capacity, numPages, factory)
}

// NewShardedPool returns the lock-striped pool for concurrent readers:
// capacity split across shards, each running its own instance of the
// policy (nil = LRU).
func NewShardedPool(src PageSource, capacity, numPages, shards int, factory PolicyFactory) *ShardedPool {
	return buffer.NewShardedPoolWith(src, capacity, numPages, shards, factory)
}

// Simulation (the paper's validation methodology).
type (
	// SimConfig configures a validation simulation run.
	SimConfig = sim.Config
	// SimResult carries measured disk/node accesses with intervals.
	SimResult = sim.Result
	// SimWorkload is a query distribution for the simulator.
	SimWorkload = sim.Workload
)

// Simulate runs the LRU simulation of Section 4 over tree geometry.
func Simulate(levels [][]Rect, w SimWorkload, cfg SimConfig) (SimResult, error) {
	return sim.Run(levels, w, cfg)
}

// SimulateParallel is Simulate with the batch budget split across
// cfg.Workers independent deterministic replicas (0 = NumCPU).
// Workers == 1 reproduces Simulate bit for bit.
func SimulateParallel(levels [][]Rect, w SimWorkload, cfg SimConfig) (SimResult, error) {
	return sim.RunParallel(levels, w, cfg)
}

// SimUniformPoints returns the uniform point-query workload.
func SimUniformPoints() SimWorkload { return sim.UniformPoints{} }

// SimUniformRegions returns the boundary-corrected uniform region-query
// workload of size qx x qy.
func SimUniformRegions(qx, qy float64) (SimWorkload, error) {
	return sim.NewUniformRegions(qx, qy)
}

// SimDataDriven returns the data-driven workload: qx x qy queries
// centered at random data centers.
func SimDataDriven(qx, qy float64, centers []Point) (SimWorkload, error) {
	return sim.NewDataDriven(qx, qy, centers)
}

// Storage substrate.
type (
	// DiskManager stores fixed-size pages with I/O accounting.
	DiskManager = storage.DiskManager
	// PagedTree queries a persisted tree through a buffer pool.
	PagedTree = storage.PagedTree
)

// DefaultPageSize is the 4 KiB page used throughout.
const DefaultPageSize = storage.DefaultPageSize

// NewMemoryDisk returns an in-memory disk manager.
func NewMemoryDisk(pageSize int) (DiskManager, error) {
	return storage.NewMemoryManager(pageSize)
}

// CreateDiskFile creates a file-backed disk manager.
func CreateDiskFile(path string, pageSize int) (DiskManager, error) {
	return storage.CreateFile(path, pageSize)
}

// OpenDiskFile opens an existing page file.
func OpenDiskFile(path string) (DiskManager, error) {
	return storage.OpenFile(path)
}

// SaveTree persists a tree to a disk manager.
func SaveTree(dm DiskManager, t *Tree) error { return storage.SaveTree(dm, t) }

// LoadTreeFromDisk reads a persisted tree fully into memory.
func LoadTreeFromDisk(dm DiskManager) (*Tree, error) { return storage.LoadTree(dm) }

// OpenPagedTree opens a persisted tree for buffered querying.
func OpenPagedTree(dm DiskManager, bufferPages int) (*PagedTree, error) {
	return storage.OpenPagedTree(dm, bufferPages)
}

// OpenPagedTreeWith opens a persisted tree with an explicit replacement
// policy (one of PolicyNames; empty = LRU) and shard count (>1 selects
// the lock-striped concurrent pool).
func OpenPagedTreeWith(dm DiskManager, bufferPages int, policy string, shards int) (*PagedTree, error) {
	return storage.OpenPagedTreeWith(dm, bufferPages, policy, shards)
}

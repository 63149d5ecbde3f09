// Package sim implements the paper's validation methodology (Section 4):
// an LRU buffer simulation that, like the analytic model, takes as input
// the list of MBRs of all R-tree nodes at all levels, generates random
// queries, accesses every node whose MBR the query reaches, and counts
// buffer misses. Confidence intervals are collected with batch means, as
// in the paper ("20 batches of 1,000,000 queries each").
//
// The simulator exploits the observation that under every query model the
// paper uses, "query Q accesses node R" reduces to "a query-specific test
// point lies inside a per-node hit rectangle":
//
//   - uniform point queries: the point inside the MBR itself;
//   - uniform region queries: the query's top-right corner inside the
//     corner-extended MBR (Fig. 2);
//   - data-driven queries: the query's center inside the MBR expanded
//     about its own center (Fig. 4).
//
// Hit rectangles are precomputed and indexed on a uniform grid, so each
// query touches only candidate nodes instead of scanning all M MBRs.
package sim

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/stats"
)

// Workload defines a query distribution in test-point form.
type Workload interface {
	// HitRect returns the region of test points that access a node with
	// the given MBR.
	HitRect(mbr geom.Rect) geom.Rect
	// Next draws the next query's test point.
	Next(rng *rand.Rand) geom.Point
	// Describe names the workload for reports.
	Describe() string
}

// UniformPoints is the uniform point-query workload: query points uniform
// over the unit square.
type UniformPoints struct{}

// HitRect implements Workload.
func (UniformPoints) HitRect(mbr geom.Rect) geom.Rect { return mbr }

// Next implements Workload.
func (UniformPoints) Next(rng *rand.Rand) geom.Point {
	return geom.Point{X: rng.Float64(), Y: rng.Float64()}
}

// Describe implements Workload.
func (UniformPoints) Describe() string { return "uniform point queries" }

// UniformRegions is the uniform region-query workload of Section 3.1 with
// boundary correction: QX x QY queries whose top-right corner is uniform
// over U' = [QX,1] x [QY,1], so the query always fits in the unit square.
type UniformRegions struct {
	QX, QY float64
}

// NewUniformRegions validates the query extents.
func NewUniformRegions(qx, qy float64) (UniformRegions, error) {
	if !(qx >= 0 && qx < 1 && qy >= 0 && qy < 1) { // NaN fails too
		return UniformRegions{}, fmt.Errorf("sim: region size %gx%g outside [0,1)", qx, qy)
	}
	return UniformRegions{QX: qx, QY: qy}, nil
}

// HitRect implements Workload: the corner-extended rectangle.
func (u UniformRegions) HitRect(mbr geom.Rect) geom.Rect {
	return mbr.ExtendCorner(u.QX, u.QY)
}

// Next implements Workload: the top-right corner.
func (u UniformRegions) Next(rng *rand.Rand) geom.Point {
	return geom.Point{
		X: u.QX + rng.Float64()*(1-u.QX),
		Y: u.QY + rng.Float64()*(1-u.QY),
	}
}

// Describe implements Workload.
func (u UniformRegions) Describe() string {
	return fmt.Sprintf("uniform %gx%g region queries", u.QX, u.QY)
}

// DataDriven is the nonuniform workload of Section 3.2: a QX x QY query
// centered at the center of a data rectangle chosen uniformly at random.
type DataDriven struct {
	QX, QY  float64
	Centers []geom.Point
}

// NewDataDriven validates the workload.
func NewDataDriven(qx, qy float64, centers []geom.Point) (DataDriven, error) {
	if !(qx >= 0 && qy >= 0) || math.IsInf(qx+qy, 1) {
		return DataDriven{}, fmt.Errorf("sim: region size %gx%g is not finite and non-negative", qx, qy)
	}
	if len(centers) == 0 {
		return DataDriven{}, fmt.Errorf("sim: data-driven workload needs data centers")
	}
	return DataDriven{QX: qx, QY: qy, Centers: centers}, nil
}

// HitRect implements Workload: the MBR expanded about its center (Fig. 4).
func (d DataDriven) HitRect(mbr geom.Rect) geom.Rect {
	return mbr.ExpandTotal(d.QX, d.QY)
}

// Next implements Workload: a random data center.
func (d DataDriven) Next(rng *rand.Rand) geom.Point {
	return d.Centers[rng.IntN(len(d.Centers))]
}

// Describe implements Workload.
func (d DataDriven) Describe() string {
	return fmt.Sprintf("data-driven %gx%g queries over %d centers", d.QX, d.QY, len(d.Centers))
}

// Config controls a simulation run.
type Config struct {
	// BufferSize is the LRU capacity in pages. Required (>= 1).
	BufferSize int
	// PinLevels pins the top levels' pages before measuring (Section 5.5).
	PinLevels int
	// Batches and BatchSize define the batch-means measurement. The paper
	// uses 20 x 1,000,000; the defaults (20 x 50,000) keep full-suite runs
	// fast while staying well inside 3% confidence half-widths.
	Batches   int
	BatchSize int
	// Warmup queries are run and discarded before measurement so the
	// buffer reaches steady state. Zero selects max(BatchSize, 4*BufferSize).
	Warmup int
	// Seed makes runs reproducible. Zero selects a fixed default.
	Seed uint64
	// Policy constructs the replacement policy; nil selects the LRU the
	// paper models. buffer.NewClock tests whether the predictions
	// transfer to CLOCK-managed buffers (experiment ext-clock).
	Policy func(capacity, numPages int) buffer.Policy
}

// confidence is the level of every reported interval: the paper's 90%.
const confidence = 0.90

func (c Config) withDefaults() Config {
	if c.Batches == 0 {
		c.Batches = 20
	}
	if c.BatchSize == 0 {
		c.BatchSize = 50000
	}
	if c.Warmup == 0 {
		c.Warmup = c.BatchSize
		if w := 4 * c.BufferSize; w > c.Warmup {
			c.Warmup = w
		}
	}
	if c.Seed == 0 {
		c.Seed = 0x5eed0f42
	}
	return c
}

// Result reports a simulation's measurements.
type Result struct {
	// DiskPerQuery is the average number of buffer misses (disk accesses)
	// per query with its confidence interval — the paper's primary metric.
	DiskPerQuery stats.Interval
	// NodesPerQuery is the average number of node accesses per query
	// (buffer resident or not) — the bufferless metric.
	NodesPerQuery stats.Interval
	// HitRatio is the overall buffer hit ratio during measurement.
	HitRatio float64
	// FillQueries is the number of queries after which the buffer first
	// became full (the empirical N*), or 0 if it never filled.
	FillQueries int
	// Queries is the total number of measured queries.
	Queries int
}

// Geometry is the flattened, indexed form of one tree geometry under one
// workload: per-node hit rectangles in page-ID order (matching
// rtree.AssignPageIDs) plus the grid point index. Building it is the
// per-run setup cost of Run; when the same levels are swept across many
// buffer sizes, Prepare once and call RunPrepared per size instead.
// A Geometry is read-only after Prepare and safe to share across
// concurrent simulations.
type Geometry struct {
	hitRects []geom.Rect
	levelOf  []int
	idx      *pointIndex
}

// Prepare flattens the tree geometry (levels of node MBRs, root first)
// under the workload and builds the candidate index.
func Prepare(levels [][]geom.Rect, w Workload) (*Geometry, error) {
	return prepare(levels, w, true)
}

func prepare(levels [][]geom.Rect, w Workload, buildIndex bool) (*Geometry, error) {
	total := 0
	for _, rects := range levels {
		total += len(rects)
	}
	if total == 0 {
		return nil, fmt.Errorf("sim: empty tree geometry")
	}
	// Flatten in level order: page IDs match rtree.AssignPageIDs. Sizes
	// are known up front, so both slices are allocated exactly once.
	g := &Geometry{
		hitRects: make([]geom.Rect, 0, total),
		levelOf:  make([]int, 0, total),
	}
	for lvl, rects := range levels {
		for _, r := range rects {
			g.hitRects = append(g.hitRects, w.HitRect(r))
			g.levelOf = append(g.levelOf, lvl)
		}
	}
	if buildIndex {
		g.idx = newPointIndex(g.hitRects)
	}
	return g, nil
}

// touched appends to dst the pages whose hit rectangle contains the test
// point p — the nodes the query accesses — in ascending page order, and
// returns dst. The grid index narrows the scan to one cell's candidates;
// without it every node is tested. Both paths yield the same pages in the
// same order.
func (g *Geometry) touched(p geom.Point, dst []int32) []int32 {
	if g.idx == nil {
		for page := range g.hitRects {
			if g.hitRects[page].ContainsPoint(p) {
				dst = append(dst, int32(page))
			}
		}
		return dst
	}
	for _, page := range g.idx.candidates(p) {
		if g.hitRects[page].ContainsPoint(p) {
			dst = append(dst, page)
		}
	}
	return dst
}

// source issues one query and appends the pages it touches to dst, in the
// order the buffer sees them. The flattened MBR list (Geometry.source)
// and any caller's stream (RunSource), such as a traced tree search, are
// sources; everything downstream of a source — buffer, warm-up, batches —
// is shared.
type source func(dst []int32) []int32

// source returns the paper's access source: draw a test point from w on
// the seed's stream and touch every node whose hit rectangle contains it.
func (g *Geometry) source(w Workload, seed uint64) source {
	rng := stream(seed)
	return func(dst []int32) []int32 {
		return g.touched(w.Next(rng), dst)
	}
}

// stream returns the deterministic PCG stream a seed selects.
func stream(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// checked applies the defaults and validates what every entry point
// requires of a Config.
func (c Config) checked() (Config, error) {
	c = c.withDefaults()
	if c.BufferSize < 1 {
		return c, fmt.Errorf("sim: buffer size %d < 1", c.BufferSize)
	}
	return c, nil
}

// replica is one cold buffer fed by one access source: the state every
// kind of run — steady-state on any source, cold-start — advances one
// query at a time.
type replica struct {
	next  source
	lru   buffer.Policy
	pages []int32 // the last query's touched pages; scratch reused across queries
	fill  int     // first cold-start query after which the buffer was full (0 = not yet)
}

// newReplica builds the replacement policy over pages numbered like
// levelOf (page -> tree level, level-major) with the top PinLevels levels
// pinned.
func (c Config) newReplica(next source, levelOf []int) (*replica, error) {
	m := len(levelOf)
	var lru buffer.Policy
	if c.Policy != nil {
		lru = c.Policy(c.BufferSize, m)
	} else {
		lru = buffer.NewLRU(c.BufferSize, m)
	}
	for page := 0; page < m && levelOf[page] < c.PinLevels; page++ {
		if err := lru.Pin(page); err != nil {
			return nil, fmt.Errorf("sim: pinning %d levels: %w", c.PinLevels, err)
		}
	}
	return &replica{next: next, lru: lru}, nil
}

// query issues one query through the buffer and returns its node
// accesses and buffer misses; r.pages holds the touched pages afterwards.
func (r *replica) query() (accesses, misses int) {
	r.pages = r.next(r.pages[:0])
	for _, page := range r.pages {
		if !r.lru.Access(int(page)) {
			misses++
		}
	}
	return len(r.pages), misses
}

// coldQuery is query number q of a cold start: it also records the fill
// point, the empirical N*.
func (r *replica) coldQuery(q int) {
	r.query()
	if r.fill == 0 && r.lru.Full() {
		r.fill = q
	}
}

// runReplica is the one simulator loop behind every steady-state entry
// point: a cold buffer fed by next warms up for cfg.Warmup queries, then
// measures cfg.Batches batches of cfg.BatchSize queries each.
func runReplica(next source, levelOf []int, cfg Config) (Result, error) {
	r, err := cfg.newReplica(next, levelOf)
	if err != nil {
		return Result{}, err
	}

	diskBatch := make([]float64, cfg.Batches)
	nodeBatch := make([]float64, cfg.Batches)
	for q := 1; q <= cfg.Warmup; q++ {
		r.coldQuery(q)
	}
	r.lru.ResetStats()

	for b := 0; b < cfg.Batches; b++ {
		var disk, nodes int
		for i := 0; i < cfg.BatchSize; i++ {
			a, m := r.query()
			nodes += a
			disk += m
		}
		diskBatch[b] = float64(disk) / float64(cfg.BatchSize)
		nodeBatch[b] = float64(nodes) / float64(cfg.BatchSize)
	}
	return Result{
		DiskPerQuery:  stats.BatchMeans(diskBatch, confidence),
		NodesPerQuery: stats.BatchMeans(nodeBatch, confidence),
		HitRatio:      r.lru.HitRatio(),
		FillQueries:   r.fill,
		Queries:       cfg.Batches * cfg.BatchSize,
	}, nil
}

// Run simulates the workload against the tree geometry (levels of node
// MBRs, root first) and returns steady-state measurements.
func Run(levels [][]geom.Rect, w Workload, cfg Config) (Result, error) {
	g, err := Prepare(levels, w)
	if err != nil {
		return Result{}, err
	}
	return RunPrepared(g, w, cfg)
}

// RunPrepared is Run over an already-prepared geometry, sharing the
// flattening and index cost across runs (e.g. one Prepare per tree, one
// RunPrepared per buffer size of a sweep). The workload must be the one
// the geometry was prepared with.
func RunPrepared(g *Geometry, w Workload, cfg Config) (Result, error) {
	cfg, err := cfg.checked()
	if err != nil {
		return Result{}, err
	}
	return runReplica(g.source(w, cfg.Seed), g.levelOf, cfg)
}

// RunSource runs any access stream through the simulator loop Run uses.
// Each call of next issues one query and appends the pages it touches to
// dst, in the order the buffer sees them; next owns its random stream, so
// cfg.Seed is not consulted. levelOf maps every page to its tree level
// (root 0), numbered level-major so that PinLevels pins a prefix.
func RunSource(next func(dst []int32) []int32, levelOf []int, cfg Config) (Result, error) {
	cfg, err := cfg.checked()
	if err != nil {
		return Result{}, err
	}
	if len(levelOf) == 0 {
		return Result{}, fmt.Errorf("sim: source has no pages")
	}
	return runReplica(next, levelOf, cfg)
}

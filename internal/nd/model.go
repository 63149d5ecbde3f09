package nd

import (
	"fmt"
	"math"
	"math/rand/v2"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/core"
)

// The d-dimensional cost model. Access probabilities generalize
// per-dimension (products of clipped extended extents); the buffer model
// is dimension-independent and reused from internal/core.

// UniformQueries is the boundary-corrected uniform model for box queries
// of extents Q[i] in [0,1) over the unit cube: the query's "upper corner"
// is uniform over the product of [Q[i], 1].
type UniformQueries struct {
	Q []float64
}

// NewUniformQueries validates the query extents.
func NewUniformQueries(q []float64) (UniformQueries, error) {
	if len(q) < 2 {
		return UniformQueries{}, fmt.Errorf("nd: query needs >= 2 dims, got %d", len(q))
	}
	for i, v := range q {
		if v < 0 || v >= 1 {
			return UniformQueries{}, fmt.Errorf("nd: query extent %d = %g outside [0,1)", i, v)
		}
	}
	return UniformQueries{Q: append([]float64(nil), q...)}, nil
}

// AccessProb returns the probability that a random query accesses a node
// with the given MBR — the per-dimension product generalizing Sec. 3.1.
func (u UniformQueries) AccessProb(mbr Rect) float64 {
	p := 1.0
	for i := range u.Q {
		c := math.Min(1, mbr.Max[i]+u.Q[i]) - math.Max(mbr.Min[i], u.Q[i])
		if c <= 0 {
			return 0
		}
		p *= c / (1 - u.Q[i])
	}
	return math.Min(p, 1)
}

// DataDrivenQueries mimics the data distribution in d dimensions
// (Sec. 3.2 generalized): a query is a box of extents Q centered at a
// random data center; the access probability of an MBR is the fraction of
// centers inside the MBR expanded by Q about its center.
type DataDrivenQueries struct {
	Q       []float64
	centers []Point
}

// NewDataDrivenQueries validates the model. Counting is exact but linear
// in the number of centers per node — fine at the scales the
// ext-dimensions experiment uses; the 2-D package has the grid-indexed
// fast path.
func NewDataDrivenQueries(q []float64, centers []Point) (DataDrivenQueries, error) {
	if len(centers) == 0 {
		return DataDrivenQueries{}, fmt.Errorf("nd: data-driven model needs centers")
	}
	for _, v := range q {
		if v < 0 {
			return DataDrivenQueries{}, fmt.Errorf("nd: negative query extent %g", v)
		}
	}
	return DataDrivenQueries{Q: append([]float64(nil), q...), centers: centers}, nil
}

// AccessProb implements the d-dimensional Equation 4.
func (d DataDrivenQueries) AccessProb(mbr Rect) float64 {
	expanded := mbr.ExpandTotal(d.Q)
	count := 0
	for _, c := range d.centers {
		if expanded.ContainsPoint(c) {
			count++
		}
	}
	return float64(count) / float64(len(d.centers)) //lint:allow probrange count <= len(centers), and NewDataDrivenQueries rejects an empty set
}

// QueryModel yields per-node access probabilities.
type QueryModel interface {
	AccessProb(mbr Rect) float64
}

// NewPredictor evaluates qm over the levels of a d-dimensional tree. The
// buffer mathematics never look at geometry, so the result is the 2-D
// package's Predictor: every buffer-size, pinning and policy model of
// internal/core applies unchanged.
func NewPredictor(levels [][]Rect, qm QueryModel) *core.Predictor {
	probs := make([][]float64, len(levels))
	for i, lvl := range levels {
		probs[i] = make([]float64, len(lvl))
		for j, r := range lvl {
			probs[i][j] = qm.AccessProb(r)
		}
	}
	return core.NewPredictorFromProbs(probs)
}

// SimulatePointQueries runs a small LRU validation simulation with
// uniform point queries over the unit cube, returning average disk
// accesses per query — the d-dimensional counterpart of internal/sim at
// test scale (brute-force candidate scan; no grid index).
func SimulatePointQueries(levels [][]Rect, bufferSize, warmup, queries int, seed uint64) (float64, error) {
	if bufferSize < 1 {
		return 0, fmt.Errorf("nd: buffer size %d < 1", bufferSize)
	}
	var rects []Rect
	for _, lvl := range levels {
		rects = append(rects, lvl...)
	}
	if len(rects) == 0 {
		return 0, fmt.Errorf("nd: empty geometry")
	}
	dims := rects[0].Dims()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef123))
	lru := buffer.NewLRU(bufferSize, len(rects))
	p := make(Point, dims)
	misses := 0
	for q := 0; q < warmup+queries; q++ {
		if q == warmup {
			misses = 0
		}
		for i := range p {
			p[i] = rng.Float64()
		}
		for id, r := range rects {
			if r.ContainsPoint(p) && !lru.Access(id) {
				misses++
			}
		}
	}
	return float64(misses) / float64(queries), nil
}

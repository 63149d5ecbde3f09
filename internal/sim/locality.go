package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"rtreebuf/internal/geom"
)

// Workloads beyond the paper's three, for probing the limits of the
// independence assumption behind the buffer model (see the ext-locality
// experiment).

// WeightedCenters draws query centers from a weighted distribution — the
// simulator counterpart of core.WeightedQueries. Queries of size QX x QY
// are centered at center k with probability proportional to Weights[k].
type WeightedCenters struct {
	QX, QY  float64
	centers []geom.Point
	cum     []float64 // cumulative normalized weights for sampling
}

// NewWeightedCenters validates and prepares the sampler.
func NewWeightedCenters(qx, qy float64, centers []geom.Point, weights []float64) (WeightedCenters, error) {
	if !(qx >= 0 && qy >= 0) || math.IsInf(qx+qy, 1) {
		return WeightedCenters{}, fmt.Errorf("sim: query size %gx%g is not finite and non-negative", qx, qy)
	}
	if len(centers) == 0 || len(centers) != len(weights) {
		return WeightedCenters{}, fmt.Errorf("sim: %d centers with %d weights", len(centers), len(weights))
	}
	cum := make([]float64, len(weights))
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return WeightedCenters{}, fmt.Errorf("sim: invalid weight %g", w)
		}
		sum += w
		cum[i] = sum
	}
	if sum <= 0 {
		return WeightedCenters{}, fmt.Errorf("sim: weights sum to %g", sum)
	}
	for i := range cum {
		cum[i] /= sum
	}
	return WeightedCenters{QX: qx, QY: qy, centers: append([]geom.Point(nil), centers...), cum: cum}, nil
}

// HitRect implements Workload.
func (w WeightedCenters) HitRect(mbr geom.Rect) geom.Rect {
	return mbr.ExpandTotal(w.QX, w.QY)
}

// Next implements Workload: inverse-CDF sampling over the weights.
func (w WeightedCenters) Next(rng *rand.Rand) geom.Point {
	u := rng.Float64()
	i := sort.SearchFloat64s(w.cum, u)
	if i >= len(w.centers) {
		i = len(w.centers) - 1
	}
	return w.centers[i]
}

// Describe implements Workload.
func (w WeightedCenters) Describe() string {
	return fmt.Sprintf("weighted %gx%g queries over %d centers", w.QX, w.QY, len(w.centers))
}

// RandomWalk issues point queries that wander: each query point is the
// previous one plus a Gaussian step, reflected back into the unit square.
// This deliberately violates the model's independent-queries assumption —
// successive queries touch overlapping node sets, so a real LRU does
// better than the model predicts. The ext-locality experiment quantifies
// the gap.
//
// RandomWalk is stateful: use a fresh value per simulation run.
type RandomWalk struct {
	// Step is the standard deviation of each coordinate step.
	Step float64

	pos     geom.Point
	started bool
}

// NewRandomWalk validates the step size.
func NewRandomWalk(step float64) (*RandomWalk, error) {
	if !(step > 0 && step < 1) { // NaN fails too
		return nil, fmt.Errorf("sim: random-walk step %g outside (0,1)", step)
	}
	return &RandomWalk{Step: step}, nil
}

// HitRect implements Workload (point queries).
func (w *RandomWalk) HitRect(mbr geom.Rect) geom.Rect { return mbr }

// Next implements Workload.
func (w *RandomWalk) Next(rng *rand.Rand) geom.Point {
	if !w.started {
		w.started = true
		w.pos = geom.Point{X: rng.Float64(), Y: rng.Float64()}
		return w.pos
	}
	w.pos.X = reflect01(w.pos.X + w.Step*rng.NormFloat64())
	w.pos.Y = reflect01(w.pos.Y + w.Step*rng.NormFloat64())
	return w.pos
}

// Describe implements Workload.
func (w *RandomWalk) Describe() string {
	return fmt.Sprintf("random-walk point queries (step %g)", w.Step)
}

// reflect01 folds v back into [0,1] by reflection at the boundaries.
func reflect01(v float64) float64 {
	for v < 0 || v > 1 {
		if v < 0 {
			v = -v
		}
		if v > 1 {
			v = 2 - v
		}
	}
	return v
}

package core

import (
	"fmt"
	"math"

	"rtreebuf/internal/geom"
)

// WeightedQueries generalizes the data-driven model of Section 3.2 to
// nonuniform center selection: query k is chosen with probability
// Weights[k] instead of 1/n. Equation 4 becomes a weighted sum,
//
//	A^Q_ij = sum_k Weights[k] * y_ijk,
//
// which the paper's derivation supports unchanged — the buffer model only
// needs per-node access probabilities, however they arise. This models
// workloads with hot data (popular map regions, frequently probed parts
// of a simulation).
type WeightedQueries struct {
	QX, QY  float64
	centers []geom.Point
	weights []float64
}

// NewWeightedQueries validates and normalizes the weights (they must be
// non-negative with a positive sum; they are scaled to sum to 1).
func NewWeightedQueries(qx, qy float64, centers []geom.Point, weights []float64) (WeightedQueries, error) {
	if !(qx >= 0 && qy >= 0) || math.IsInf(qx+qy, 1) {
		return WeightedQueries{}, fmt.Errorf("core: query size %gx%g is not finite and non-negative", qx, qy)
	}
	if len(centers) == 0 || len(centers) != len(weights) {
		return WeightedQueries{}, fmt.Errorf("core: %d centers with %d weights", len(centers), len(weights))
	}
	var sum float64
	for _, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return WeightedQueries{}, fmt.Errorf("core: invalid weight %g", w)
		}
		sum += w
	}
	if sum <= 0 {
		return WeightedQueries{}, fmt.Errorf("core: weights sum to %g", sum)
	}
	norm := make([]float64, len(weights))
	for i, w := range weights {
		norm[i] = w / sum
	}
	return WeightedQueries{
		QX: qx, QY: qy,
		centers: append([]geom.Point(nil), centers...),
		weights: norm,
	}, nil
}

// AccessProb implements QueryModel via the weighted Equation 4.
func (w WeightedQueries) AccessProb(mbr geom.Rect) float64 {
	expanded := mbr.ExpandTotal(w.QX, w.QY)
	var p float64
	for k, c := range w.centers {
		if expanded.ContainsPoint(c) {
			p += w.weights[k]
		}
	}
	return math.Min(p, 1)
}

// ZipfWeights returns weights proportional to 1/rank^s for ranks 1..n.
// s = 0 degenerates to uniform; s around 0.8..1.2 models typical skew.
// The caller chooses the rank order (e.g. Hilbert position for a
// spatially coherent hot region).
func ZipfWeights(n int, s float64) ([]float64, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: Zipf weights for n=%d", n)
	}
	if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("core: Zipf exponent %g", s)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = 1 / math.Pow(float64(i+1), s)
	}
	return out, nil
}

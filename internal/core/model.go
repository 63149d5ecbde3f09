// Package core implements the paper's primary contribution: a buffer-aware
// analytic cost model for R-tree query performance. Given the minimum
// bounding rectangles of every node of a concrete R-tree (by level), a
// query model (uniform or data-driven, point or region), and an LRU buffer
// size, the model predicts
//
//   - EPT, the expected number of nodes accessed per query — the
//     bufferless metric of Kamel–Faloutsos and Pagel et al. (Section 3.1);
//   - EDT, the expected number of *disk accesses* per query at steady
//     state, the paper's proposed metric (Section 3.3);
//   - the effect of pinning the top levels of the tree in the buffer.
//
// The buffer model rests on the Bhide–Dan–Dias observation that the LRU
// steady-state hit probability is well approximated by the hit probability
// at the moment the buffer first fills: after N* queries, where N* is the
// smallest N with D(N) >= B and D(N) = M - sum_ij (1-A_ij)^N is the
// expected number of distinct nodes touched by N queries.
package core

import (
	"fmt"
	"math"

	"rtreebuf/internal/geom"
)

// QueryModel yields, for each node MBR, the probability that a random
// query (drawn from the model's distribution) accesses the node — the
// A^Q_ij of the paper.
type QueryModel interface {
	// AccessProb returns the probability in [0,1] that a query accesses a
	// node with the given MBR.
	AccessProb(mbr geom.Rect) float64
}

// UniformQueries is the paper's uniform query model with the boundary
// corrections of Section 3.1: queries are QX x QY rectangles whose
// top-right corner is uniform over U' = [QX,1] x [QY,1], so the whole
// query always fits in the unit square. QX = QY = 0 yields point queries.
type UniformQueries struct {
	QX, QY float64
}

// NewUniformQueries validates the query extents (each must lie in [0,1)).
func NewUniformQueries(qx, qy float64) (UniformQueries, error) {
	if qx < 0 || qx >= 1 || qy < 0 || qy >= 1 {
		return UniformQueries{}, fmt.Errorf("core: query size %gx%g outside [0,1)", qx, qy)
	}
	return UniformQueries{QX: qx, QY: qy}, nil
}

// AccessProb implements QueryModel using the corrected formula
//
//	A^Q = C*D / ((1-QX)(1-QY))
//	C = min(1, c+QX) - max(a, QX),  D = min(1, d+QY) - max(b, QY)
//
// with C and D clamped at zero (an MBR wholly outside the reachable region
// is never accessed).
func (u UniformQueries) AccessProb(mbr geom.Rect) float64 {
	c := math.Min(1, mbr.MaxX+u.QX) - math.Max(mbr.MinX, u.QX)
	d := math.Min(1, mbr.MaxY+u.QY) - math.Max(mbr.MinY, u.QY)
	if c <= 0 || d <= 0 {
		return 0
	}
	p := c * d / ((1 - u.QX) * (1 - u.QY))
	return math.Min(p, 1)
}

// KamelFaloutsosQueries is the original, uncorrected model of [4]: the
// access probability is the raw area of the corner-extended rectangle
// (w+QX)(h+QY), which can exceed one near the data-space boundary. It is
// retained for comparison with the closed form of Equation 2 and for the
// ablation benchmarks; new code should use UniformQueries.
type KamelFaloutsosQueries struct {
	QX, QY float64
}

// AccessProb implements QueryModel. The value is capped at 1 so it can be
// fed to the buffer model, which interprets it as a probability.
func (k KamelFaloutsosQueries) AccessProb(mbr geom.Rect) float64 {
	p := (mbr.Width() + k.QX) * (mbr.Height() + k.QY)
	return math.Min(p, 1)
}

// DataDrivenQueries is the paper's nonuniform query model (Section 3.2):
// a query is a QX x QY rectangle centered at the center of a data
// rectangle chosen uniformly at random, so dense regions are queried more
// often. The access probability of an MBR R is the fraction of data
// centers falling inside R expanded by QX and QY about its own center
// (Equation 4) — correct for both point and region queries.
type DataDrivenQueries struct {
	QX, QY  float64
	centers *geom.GridCounter
}

// NewDataDrivenQueries indexes the data centers for fast counting on a
// 256 x 256 grid, which suits 10^4..10^6 points; counts are exact at any
// resolution.
func NewDataDrivenQueries(qx, qy float64, centers []geom.Point) (DataDrivenQueries, error) {
	if qx < 0 || qy < 0 {
		return DataDrivenQueries{}, fmt.Errorf("core: negative query size %gx%g", qx, qy)
	}
	if len(centers) == 0 {
		return DataDrivenQueries{}, fmt.Errorf("core: data-driven model needs at least one data center")
	}
	return DataDrivenQueries{QX: qx, QY: qy, centers: geom.NewGridCounter(centers, 256)}, nil
}

// AccessProb implements QueryModel via Equation 4.
func (d DataDrivenQueries) AccessProb(mbr geom.Rect) float64 {
	return d.centers.Fraction(mbr.ExpandTotal(d.QX, d.QY))
}

// AccessProbs evaluates the query model on every node MBR, preserving the
// level structure (index 0 = root). This is the expensive step — a
// Predictor computes it once and reuses it across buffer sizes.
func AccessProbs(levels [][]geom.Rect, qm QueryModel) [][]float64 {
	out := make([][]float64, len(levels))
	for i, lvl := range levels {
		out[i] = make([]float64, len(lvl))
		for j, r := range lvl {
			out[i][j] = qm.AccessProb(r)
		}
	}
	return out
}

// EPTClosedForm evaluates Equation 2 of the paper, the Kamel–Faloutsos
// closed form for the expected number of nodes accessed by an
// (uncorrected) uniform region query:
//
//	EPT(qx,qy) = A + qx*Ly + qy*Lx + M*qx*qy
//
// where A, Lx, Ly are the total area and per-axis extent sums of all node
// MBRs and M is the node count. With qx = qy = 0 it reduces to Equation 1,
// EPT(0,0) = A.
func EPTClosedForm(levels [][]geom.Rect, qx, qy float64) float64 {
	var a, lx, ly float64
	m := 0
	for _, lvl := range levels {
		m += len(lvl)
		for _, r := range lvl {
			a += r.Area()
			lx += r.Width()
			ly += r.Height()
		}
	}
	return a + qx*ly + qy*lx + float64(m)*qx*qy
}

// pow1m returns (1-a)^n for a in [0,1] and n >= 0, computed in log space
// for accuracy when a is tiny and n is huge — exactly the regime of large
// trees and large warm-up counts.
func pow1m(a, n float64) float64 {
	switch {
	case a <= 0:
		return 1
	case a >= 1:
		if n == 0 { //lint:allow floatcmp n counts queries; exactly zero is the 0^0 = 1 case
			return 1
		}
		return 0
	default:
		return math.Exp(n * math.Log1p(-a))
	}
}

// DistinctNodes evaluates D(N) of Equation 5: the expected number of
// distinct nodes accessed over N queries, given the per-node access
// probabilities.
func DistinctNodes(probs []float64, n float64) float64 {
	var d float64
	for _, a := range probs {
		d += 1 - pow1m(a, n)
	}
	return d
}

// reachable returns how many nodes have non-zero access probability —
// the asymptote of D(N).
func reachable(probs []float64) int {
	c := 0
	for _, a := range probs {
		if a > 0 {
			c++
		}
	}
	return c
}

// WarmupQueries returns N*, the smallest integer N with D(N) >= B, found
// by binary search as the paper suggests. If the buffer can hold every
// reachable node (B >= the asymptote of D), the buffer never fills and
// WarmupQueries returns +Inf: at steady state every access hits.
func WarmupQueries(probs []float64, bufferSize int) float64 {
	if bufferSize <= 0 {
		return 0
	}
	b := float64(bufferSize)
	if float64(reachable(probs)) <= b {
		return math.Inf(1)
	}
	// Exponential search for an upper bound, then binary search.
	var lo, hi int64 = 0, 1
	for DistinctNodes(probs, float64(hi)) < b {
		lo = hi
		hi *= 2
		if hi > 1<<52 {
			// D approaches its asymptote only in the limit; numerically the
			// buffer never fills.
			return math.Inf(1)
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if DistinctNodes(probs, float64(mid)) >= b {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return float64(lo)
}

// DiskAccesses evaluates Equation 6: the expected number of disk accesses
// per query at steady state,
//
//	EDT = sum_ij A_ij * (1 - A_ij)^N*
//
// given flattened access probabilities and the buffer size. A buffer large
// enough to hold every reachable node yields zero steady-state accesses;
// a zero-size buffer degenerates to the bufferless EPT.
func DiskAccesses(probs []float64, bufferSize int) float64 {
	nstar := WarmupQueries(probs, bufferSize)
	if math.IsInf(nstar, 1) {
		return 0
	}
	var e float64
	for _, a := range probs {
		e += a * pow1m(a, nstar)
	}
	return e
}

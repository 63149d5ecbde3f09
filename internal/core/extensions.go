package core

import (
	"math"
	"sort"
)

// This file extends the paper's steady-state model with quantities its
// derivation already contains but does not surface, plus one baseline the
// paper's framework makes trivial to add:
//
//   - the warm-up transient (Bhide–Dan–Dias study exactly this): expected
//     distinct nodes D(N) and expected cumulative misses over the first N
//     queries;
//   - a static "hot set" cache baseline: cache the B most frequently
//     accessed nodes forever. LRU can never beat it under the model's
//     independence assumption, so the gap bounds what any replacement
//     policy could still gain.

// WarmupPoint is one sample of the warm-up transient.
type WarmupPoint struct {
	Queries        float64 // N
	DistinctNodes  float64 // D(N)
	ExpectedMisses float64 // cumulative buffer misses after N queries
}

// WarmupCurve samples the warm-up transient at the given query counts.
// Before the buffer fills, every first touch of a node is a miss and
// every re-touch is a hit, so the expected cumulative misses after N
// queries equal D(N) while D(N) <= B; past the fill point the curve
// continues at the steady-state rate EDT per query (the Bhide-style
// two-phase approximation the paper's model rests on).
func (p *Predictor) WarmupCurve(bufferSize int, queryCounts []float64) []WarmupPoint {
	return p.warmupCurve(0, p.WarmupQueries(bufferSize), queryCounts)
}

// WarmupCurvePinned is WarmupCurve for a buffer whose top pinLevels
// levels are pinned before the first query: the P pin faults are paid up
// front, after which only first touches of the unpinned levels miss,
// until those levels fill the remaining B - P pages. DistinctNodes still
// counts every node a query touches, pinned or not.
func (p *Predictor) WarmupCurvePinned(bufferSize, pinLevels int, queryCounts []float64) ([]WarmupPoint, error) {
	from, nstar, err := p.pinnedFill(bufferSize, pinLevels)
	if err != nil {
		return nil, err
	}
	return p.warmupCurve(from, nstar, queryCounts), nil
}

// warmupCurve samples the transient of the nodes from..M filling their
// share of the buffer at nstar, the `from` pages above them pinned.
func (p *Predictor) warmupCurve(from int, nstar float64, queryCounts []float64) []WarmupPoint {
	edt := p.edt(from, 1, nstar, nil)
	out := make([]WarmupPoint, 0, len(queryCounts))
	for _, n := range queryCounts {
		pt := WarmupPoint{
			Queries:        n,
			DistinctNodes:  DistinctNodes(p.flat, n),
			ExpectedMisses: float64(from) + DistinctNodes(p.flat[from:], math.Min(n, nstar)),
		}
		if n > nstar {
			pt.ExpectedMisses += (n - nstar) * edt
		}
		out = append(out, pt)
	}
	return out
}

// DiskAccessesStatic evaluates the static hot-set baseline: permanently
// cache the bufferSize nodes with the highest access probability; every
// access to any other node is a disk access. This is the optimal *static*
// placement, a useful reference when deciding whether LRU is leaving
// performance on the table — and, by the A0 rule of Aho–Denning–Ullman,
// a bound on every policy: under the model's independent-reference
// assumption no demand-paging replacement policy (LRU, 2Q, Clock-Pro, or
// anything else) can average fewer disk accesses per query.
//
// Caveat: DiskAccesses (the paper's LRU model) is an approximation whose
// effective footprint is "all nodes touched in the last N* queries",
// which at very small buffers exceeds B pages in expectation — so the LRU
// *model* can report slightly fewer misses than the provably optimal
// static policy there. Treat comparisons at B below a few queries' worth
// of nodes accordingly.
func (p *Predictor) DiskAccessesStatic(bufferSize int) float64 {
	if bufferSize >= len(p.flat) {
		return 0
	}
	if bufferSize < 0 {
		bufferSize = 0
	}
	probs := append([]float64(nil), p.flat...)
	sort.Sort(sort.Reverse(sort.Float64Slice(probs)))
	var e float64
	for _, a := range probs[bufferSize:] {
		e += a
	}
	return e
}

// LRUInefficiency returns max(0, EDT_LRU(B) - EDT_static(B)), the disk
// accesses per query an ideal static placement would save over LRU at
// this buffer size. Zero means LRU already keeps (at least) the hot set
// resident — or that the small-buffer model optimism described on
// DiskAccessesStatic masks the difference.
func (p *Predictor) LRUInefficiency(bufferSize int) float64 {
	d := p.DiskAccesses(bufferSize) - p.DiskAccessesStatic(bufferSize)
	return math.Max(0, d)
}

package core

import (
	"fmt"
	"math"

	"rtreebuf/internal/geom"
)

// Predictor bundles a tree's evaluated access probabilities with the
// cached search state for N*, so that predictions for many buffer sizes,
// policies and pinning configurations reuse the expensive passes. It is
// the type most callers want. A Predictor is immutable after construction
// and safe to share across goroutines.
//
// Every policy model here is written once, as a call to sum: the total
// accumulates in flat node order (the order the reference DiskAccesses
// uses, so totals equal it bit for bit) and the per-level split, when a
// caller asks for it, accumulates in the same loop.
type Predictor struct {
	// flat holds the access probabilities level-major, root first — the
	// page-ID order of rtree.AssignPageIDs and the simulator.
	flat []float64
	// start[i] is the flat index of level i's first node;
	// start[LevelCount()] = NodeCount(). Pinning the top k levels removes
	// flat[:start[k]] from the model and start[k] pages from the buffer.
	start []int
	sw    *sweeper
}

// NewPredictor evaluates qm over the tree geometry (levels of node MBRs,
// root first — e.g. from rtree.Tree.Levels).
func NewPredictor(levels [][]geom.Rect, qm QueryModel) *Predictor {
	return NewPredictorFromProbs(AccessProbs(levels, qm))
}

// NewPredictorFromProbs builds a Predictor from already evaluated access
// probabilities, one slice per level, root first. The buffer model never
// looks at geometry, so this is how trees with their own query models
// (the d-dimensional ones of internal/nd) share it.
func NewPredictorFromProbs(probs [][]float64) *Predictor {
	p := &Predictor{start: make([]int, 1, len(probs)+1)}
	for _, lvl := range probs {
		p.flat = append(p.flat, lvl...)
		p.start = append(p.start, len(p.flat))
	}
	p.sw = newSweeper(p.flat)
	return p
}

// NodeCount returns M, the total number of nodes.
func (p *Predictor) NodeCount() int { return len(p.flat) }

// LevelCount returns the number of tree levels H+1.
func (p *Predictor) LevelCount() int { return len(p.start) - 1 }

// NodesPerLevel returns the per-level node counts M_i, root first.
func (p *Predictor) NodesPerLevel() []int {
	out := make([]int, p.LevelCount())
	for i := range out {
		out[i] = p.start[i+1] - p.start[i]
	}
	return out
}

// sum adds term(i) for i = from, from+stride, ... in that order and
// returns the total. When split is non-nil (one entry per level) every
// term is also added to its level's entry.
func (p *Predictor) sum(from, stride int, split []float64, term func(i int) float64) float64 {
	var total float64
	lvl := 0
	for i := from; i < len(p.flat); i += stride {
		t := term(i)
		total += t
		if split != nil {
			for i >= p.start[lvl+1] {
				lvl++
			}
			split[lvl] += t
		}
	}
	return total
}

// prob is the EPT term: node i's access probability.
func (p *Predictor) prob(i int) float64 { return p.flat[i] }

// edt evaluates Equation 6 at fill point nstar over the nodes from,
// from+stride, ...: zero when the buffer never fills, the bufferless EPT
// of those nodes when there is no buffer to fill.
func (p *Predictor) edt(from, stride int, nstar float64, split []float64) float64 {
	switch {
	case math.IsInf(nstar, 1):
		return 0
	case nstar == 0: //lint:allow floatcmp N* counts queries; exactly zero means a buffer of no pages
		return p.sum(from, stride, split, p.prob)
	}
	return p.sum(from, stride, split, func(i int) float64 { return p.sw.term(i, nstar) })
}

// NodesVisited returns EPT, the expected number of node accesses per query
// — the bufferless metric the paper argues against using alone.
func (p *Predictor) NodesVisited() float64 { return p.sum(0, 1, nil, p.prob) }

// NodesVisitedPerLevel returns EPT and its split by tree level, root
// first.
func (p *Predictor) NodesVisitedPerLevel() (float64, []float64) {
	split := make([]float64, p.LevelCount())
	return p.sum(0, 1, split, p.prob), split
}

// WarmupQueries returns N* for the given buffer size (+Inf when the buffer
// holds every reachable node).
func (p *Predictor) WarmupQueries(bufferSize int) float64 {
	return p.sw.warmupFrom(0, bufferSize, 0)
}

// DiskAccesses returns EDT, the expected disk accesses per query at steady
// state with an LRU buffer of the given page capacity.
func (p *Predictor) DiskAccesses(bufferSize int) float64 {
	return p.edt(0, 1, p.WarmupQueries(bufferSize), nil)
}

// DiskAccessesPerLevel returns EDT and its split by tree level: all
// levels share the buffer's single fill point N*, so level i contributes
// sum_j A_ij (1-A_ij)^N*.
func (p *Predictor) DiskAccessesPerLevel(bufferSize int) (float64, []float64) {
	split := make([]float64, p.LevelCount())
	return p.edt(0, 1, p.WarmupQueries(bufferSize), split), split
}

// PinnedPages returns the number of pages occupied by pinning the top
// pinLevels levels (levels 0..pinLevels-1).
func (p *Predictor) PinnedPages(pinLevels int) int {
	return p.start[max(0, min(pinLevels, p.LevelCount()))]
}

// MaxPinnableLevels returns the largest number of top levels whose total
// page count fits in a buffer of the given size.
func (p *Predictor) MaxPinnableLevels(bufferSize int) int {
	lvl := 0
	for lvl < p.LevelCount() && p.start[lvl+1] <= bufferSize {
		lvl++
	}
	return lvl
}

// firstUnpinned returns the flat index of the first node below the top
// pinLevels levels — which is also P, the pages those levels occupy.
func (p *Predictor) firstUnpinned(pinLevels int) (int, error) {
	if pinLevels < 0 || pinLevels > p.LevelCount() {
		return 0, fmt.Errorf("core: pinLevels %d outside [0,%d]", pinLevels, p.LevelCount())
	}
	return p.start[pinLevels], nil
}

// pinnedFill resolves a pinning configuration (see DiskAccessesPinned):
// the flat index of the first unpinned node and the fill point N* the
// levels from there on share over the B - P pages the pins leave.
func (p *Predictor) pinnedFill(bufferSize, pinLevels int) (from int, nstar float64, err error) {
	from, err = p.firstUnpinned(pinLevels)
	if err != nil {
		return 0, 0, err
	}
	if from > bufferSize {
		return 0, 0, fmt.Errorf("core: pinning %d levels needs %d pages > buffer %d",
			pinLevels, from, bufferSize)
	}
	return from, p.sw.warmupFrom(from, bufferSize-from, 0), nil
}

// WarmupQueriesPinned returns the fill point of a buffer whose top
// pinLevels levels are pinned: the N* DiskAccessesPinned evaluates
// Equation 6 at.
func (p *Predictor) WarmupQueriesPinned(bufferSize, pinLevels int) (float64, error) {
	_, nstar, err := p.pinnedFill(bufferSize, pinLevels)
	return nstar, err
}

// DiskAccessesPinned returns EDT when the top pinLevels levels are pinned
// in the buffer. Following Section 3.3, the pinned pages are subtracted
// from the buffer and the pinned levels are omitted from the model: pinned
// nodes never cause disk accesses at steady state, and the remaining
// levels compete for the remaining B - P buffer pages. pinLevels = 0
// reduces to DiskAccesses. An error is returned when the pinned levels do
// not fit in the buffer.
func (p *Predictor) DiskAccessesPinned(bufferSize, pinLevels int) (float64, error) {
	from, nstar, err := p.pinnedFill(bufferSize, pinLevels)
	if err != nil {
		return 0, err
	}
	return p.edt(from, 1, nstar, nil), nil
}

// DiskAccessesPinnedPerLevel returns DiskAccessesPinned and its split by
// level: the pinned top levels contribute exactly zero.
func (p *Predictor) DiskAccessesPinnedPerLevel(bufferSize, pinLevels int) (float64, []float64, error) {
	from, nstar, err := p.pinnedFill(bufferSize, pinLevels)
	if err != nil {
		return 0, nil, err
	}
	split := make([]float64, p.LevelCount())
	return p.edt(from, 1, nstar, split), split, nil
}

// sweep evaluates the LRU model over the nodes from..M at every buffer
// size in bufferSizes, of which the first `from` pages are taken by the
// pinned levels above; results come back in input order. Sizes are
// processed ascending, where each search warm-starts from the previous
// N*; input order is arbitrary and duplicates are fine.
func (p *Predictor) sweep(from int, bufferSizes []int) []float64 {
	out := make([]float64, len(bufferSizes))
	order := make([]int, len(bufferSizes))
	for i := range order {
		order[i] = i
	}
	// Insertion sort by buffer size: sweep lists are a dozen entries, and
	// avoiding sort.Slice keeps this path allocation-free.
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && bufferSizes[order[j]] < bufferSizes[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}
	nstar := 0.0
	for k, idx := range order {
		if k > 0 && bufferSizes[idx] == bufferSizes[order[k-1]] {
			out[idx] = out[order[k-1]]
			continue
		}
		nstar = p.sw.warmupFrom(from, bufferSizes[idx]-from, nstar)
		out[idx] = p.edt(from, 1, nstar, nil)
	}
	return out
}

// DiskAccessesSweep returns EDT at every buffer size in bufferSizes (in
// input order), identical to calling DiskAccesses per size but with each
// search warm-started from the next smaller size's N*. This is the path
// the figure experiments use.
func (p *Predictor) DiskAccessesSweep(bufferSizes []int) []float64 {
	return p.sweep(0, bufferSizes)
}

// DiskAccessesPinnedSweep returns EDT with the top pinLevels levels
// pinned, at every buffer size in bufferSizes (in input order). Sizes too
// small to hold the pinned levels yield NaN — the sweep analogue of the
// per-size DiskAccessesPinned error; feasible sizes match it exactly. An
// error is returned only when pinLevels itself is out of range.
func (p *Predictor) DiskAccessesPinnedSweep(bufferSizes []int, pinLevels int) ([]float64, error) {
	from, err := p.firstUnpinned(pinLevels)
	if err != nil {
		return nil, err
	}
	out := p.sweep(from, bufferSizes)
	for i, b := range bufferSizes {
		if from > b {
			out[i] = math.NaN()
		}
	}
	return out, nil
}

// PinningImprovement returns the relative reduction in disk accesses from
// pinning pinLevels levels versus plain LRU with the same buffer:
// (EDT_unpinned - EDT_pinned) / EDT_unpinned. Zero means no benefit. An
// error is returned when pinning is infeasible.
func (p *Predictor) PinningImprovement(bufferSize, pinLevels int) (float64, error) {
	base := p.DiskAccesses(bufferSize)
	pinned, err := p.DiskAccessesPinned(bufferSize, pinLevels)
	if err != nil {
		return 0, err
	}
	// Near-zero EDT means the buffer already absorbs everything; dividing
	// by it would amplify rounding noise into a nonsense percentage.
	if geom.ApproxEqual(base, 0, 1e-12) {
		return 0, nil
	}
	return (base - pinned) / base, nil
}

// BufferForTarget returns the smallest buffer size whose predicted EDT is
// at most target disk accesses per query, searching [1, maxBuffer]. The
// boolean reports whether the target is reachable within maxBuffer. This
// is the "choosing a buffer size" use case of Section 5.3 turned into an
// API: EDT is non-increasing in buffer size, so binary search applies.
func (p *Predictor) BufferForTarget(target float64, maxBuffer int) (int, bool) {
	if target < 0 || maxBuffer < 1 {
		return 0, false
	}
	if p.DiskAccesses(maxBuffer) > target {
		return 0, false
	}
	lo, hi := 1, maxBuffer
	for lo < hi {
		mid := lo + (hi-lo)/2
		if p.DiskAccesses(mid) <= target {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, true
}

// HitRatio returns the predicted steady-state buffer hit ratio
// 1 - EDT/EPT for the given buffer size (0 when EPT is 0).
func (p *Predictor) HitRatio(bufferSize int) float64 {
	ept := p.NodesVisited()
	// A sum of access probabilities this small means no node is reachable;
	// the ratio would be rounding noise over rounding noise.
	if geom.ApproxEqual(ept, 0, 1e-12) {
		return 0
	}
	r := 1 - p.DiskAccesses(bufferSize)/ept
	return math.Max(0, math.Min(1, r))
}

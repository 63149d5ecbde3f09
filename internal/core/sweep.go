package core

import "math"

// This file is how a Predictor finds N*. Every figure of the paper
// evaluates EDT at a dozen buffer sizes over the same tree, and the
// reference WarmupQueries re-derives log1p(-A_ij) for every node at every
// binary-search probe of every buffer size. A sweeper, built once per
// Predictor, hoists the per-node work out of every search:
//
//   - log1p(-A_ij) is computed once per node and cached;
//   - N* is monotone non-decreasing in B (D(N) >= B gets harder to meet
//     as B grows), so each buffer size's binary search can warm-start
//     from a smaller size's N*;
//   - the D(N) >= B predicate inside the search exits early, using suffix
//     bounds over the node array, as soon as the comparison is decided.
//
// The suffix bounds are what let one sweeper serve every pinning
// configuration: pinning the top levels removes a prefix of the level-
// major node array from the model, so every search and every Equation 6
// sum takes the index of its first node.
//
// Exactness is part of the contract: a sweeper returns the same N* and
// the same Equation 6 terms as the reference WarmupQueries and
// DiskAccesses (the tests assert it over every probability regime; the
// implementation is bit-identical). That rules out the tempting trick of
// summing nodes in probability-sorted order with a truncated tail —
// reordering a float sum changes its rounding. Instead the predicate
// accumulates in the reference's original node order and only exits when
// the decision is conclusive either way: the partial sum of non-negative
// terms already reaches B (float sums of non-negative terms are monotone,
// so the full reference sum can only be larger), or the partial sum plus
// a rigorous upper bound on the remaining terms — count times the largest
// remaining term, via precomputed suffix extrema — falls short of B by a
// margin far above accumulated rounding error. Inconclusive probes simply
// run to completion and reproduce the reference sum bit for bit.

// sweeper caches the per-node quantities shared by every buffer size and
// pinning configuration over one probability vector. It is read-only
// after newSweeper.
type sweeper struct {
	probs []float64
	// logs[i] = log1p(-probs[i]) for probs[i] in (0,1). Outside it the
	// entry encodes pow1m's conventions for a positive query count: 0 for
	// probs[i] <= 0 (the power is 1) and -Inf for probs[i] >= 1 (the
	// power is 0), so exp(n*logs[i]) is (1-A)^n for every node.
	logs []float64
	// Suffix data over the original node order, indexed 0..m (entry m is
	// the empty tail): how many tail nodes have probability >= 1, how many
	// are "active" (in (0,1)), and the most negative cached log among the
	// active ones — i.e. the largest tail probability.
	onesTail   []int
	activeTail []int
	minLogTail []float64
}

// sweepBoundsBlock is how many nodes the predicate accumulates between
// early-exit checks. Small enough to exit quickly once the partial sum
// crosses B, large enough that the bound arithmetic is noise.
const sweepBoundsBlock = 256

// predicateGuard is the conclusiveness margin of the early "false" exit:
// the bound must miss B by more than this. Accumulated rounding error of
// a full sum is ~m*eps*D (≈1e-8 for a million nodes), orders of magnitude
// below the guard, so an early "false" always agrees with the full sum.
const predicateGuard = 1e-6

func newSweeper(probs []float64) *sweeper {
	m := len(probs)
	s := &sweeper{
		probs:      probs,
		logs:       make([]float64, m),
		onesTail:   make([]int, m+1),
		activeTail: make([]int, m+1),
		minLogTail: make([]float64, m+1),
	}
	for i := m - 1; i >= 0; i-- {
		a := probs[i]
		s.onesTail[i] = s.onesTail[i+1]
		s.activeTail[i] = s.activeTail[i+1]
		s.minLogTail[i] = s.minLogTail[i+1]
		switch {
		case a <= 0:
			// unreachable node; contributes nothing
		case a >= 1:
			s.logs[i] = math.Inf(-1)
			s.onesTail[i]++
		default:
			l := math.Log1p(-a)
			s.logs[i] = l
			if s.activeTail[i] == 0 || l < s.minLogTail[i] {
				s.minLogTail[i] = l
			}
			s.activeTail[i]++
		}
	}
	return s
}

// reachable returns how many of the nodes from..m have positive
// probability — the asymptote of D(N) over them.
func (s *sweeper) reachable(from int) int {
	return s.onesTail[from] + s.activeTail[from]
}

// distinctAtLeast reports whether D(n) >= b over the nodes from..m,
// agreeing exactly with comparing a full DistinctNodes evaluation of
// probs[from:] against b (same terms, same order, same rounding) while
// exiting early once the comparison is decided.
func (s *sweeper) distinctAtLeast(from int, n, b float64) bool {
	var d float64
	m := len(s.probs)
	for i := from; i < m; {
		end := i + sweepBoundsBlock
		if end > m {
			end = m
		}
		for ; i < end; i++ {
			a := s.probs[i]
			switch {
			case a <= 0:
				// term is exactly 0
			case a >= 1:
				if n != 0 { //lint:allow floatcmp n counts queries; exactly zero is the 0^0 = 1 case
					d++
				}
			default:
				d += 1 - math.Exp(n*s.logs[i])
			}
		}
		if d >= b {
			return true // remaining terms are non-negative
		}
		if i < m {
			bound := float64(s.onesTail[i])
			if s.activeTail[i] > 0 && n != 0 { //lint:allow floatcmp D(0) tail is exactly zero
				bound += float64(s.activeTail[i]) * (1 - math.Exp(n*s.minLogTail[i]))
			}
			if d+bound*(1+1e-12) < b-predicateGuard {
				return false
			}
		}
	}
	return d >= b
}

// warmupFrom returns N* for bufferSize pages shared by the nodes
// from..m, warm-starting the search from prev, a lower bound on N* (pass
// 0, or the N* of any buffer size <= bufferSize over the same nodes:
// D(N) < B' <= B for all N below that N*).
func (s *sweeper) warmupFrom(from, bufferSize int, prev float64) float64 {
	if bufferSize <= 0 {
		return 0
	}
	b := float64(bufferSize)
	if float64(s.reachable(from)) <= b {
		return math.Inf(1)
	}
	var lo int64
	if !math.IsInf(prev, 1) {
		lo = int64(prev)
	}
	// Exponential search for an upper bound, doubling from the warm start.
	// Like WarmupQueries, a buffer that 2^52 queries cannot fill is
	// declared numerically unfillable.
	const searchCap = int64(1) << 52
	hi := lo
	if hi < 1 {
		hi = 1
	}
	for !s.distinctAtLeast(from, float64(hi), b) {
		if hi >= searchCap {
			return math.Inf(1)
		}
		lo = hi + 1
		hi *= 2
		if hi > searchCap {
			hi = searchCap
		}
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if s.distinctAtLeast(from, float64(mid), b) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return float64(lo)
}

// term returns node i's term of Equation 6 at a fill point nstar > 0,
// A(1-A)^nstar, reproducing the reference a * pow1m(a, nstar) exactly
// with the cached log.
func (s *sweeper) term(i int, nstar float64) float64 {
	return s.probs[i] * math.Exp(nstar*s.logs[i])
}

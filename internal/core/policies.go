package core

import "math"

// This file extends the buffer model beyond LRU to the policies the
// sharded pool ships (experiment ext-policy):
//
//   - 2Q gets a genuine analytic model: a per-page renewal analysis under
//     the independent-reference assumption, closed by a three-window
//     fixed point (one characteristic window per queue — A1in, A1out,
//     Am) in the spirit of the Che approximation and its multi-queue
//     refinements (Garetto et al., "A unified approach to the
//     performance analysis of caching systems"), transplanted into the
//     paper's discrete query-count time base;
//   - Clock-Pro gets provable/modeled bounds rather than a point
//     prediction: under the independence assumption the best any online
//     policy can do is the A0 rule of Aho–Denning–Ullman (cache the B
//     hottest pages — the static hot set the extensions file already
//     models), and Clock-Pro's cold extreme degenerates to CLOCK, which
//     experiment ext-clock shows the LRU model predicts. Its adaptive
//     cold/hot split moves between those two endpoints.
//   - a sharded-buffer model: the sharded pool routes page p to shard
//     p mod n with a round-robin capacity split, so the model is simply
//     the sum of per-shard EDTs over the induced probability partition —
//     quantifying the hit-rate cost of sharding that the shards=1 vs
//     shards=N equivalence figure measures.

// --- 2Q -------------------------------------------------------------

// TwoQDefaultKin mirrors buffer.NewTwoQ's A1in tuning: a quarter of the
// capacity, at least one page.
func TwoQDefaultKin(capacity int) int {
	if k := capacity / 4; k > 1 {
		return k
	}
	return 1
}

// TwoQDefaultKout mirrors buffer.NewTwoQ's A1out tuning: ghosts for half
// the capacity, at least one.
func TwoQDefaultKout(capacity int) int {
	if k := capacity / 2; k > 1 {
		return k
	}
	return 1
}

// twoQWindows are the three characteristic windows (in queries) of the
// 2Q renewal model: a page admitted to A1in stays resident for nIn
// queries (FIFO of fixed throughput); its ghost survives nOut queries in
// A1out unless re-accessed first; a page promoted to Am stays until it
// goes nAm queries without an access (the LRU characteristic time).
type twoQWindows struct {
	nIn, nOut, nAm float64
}

// twoQPage evaluates one page's renewal cycle under the windows. A cycle
// runs from one A1in admission to the next. With per-query access
// probability a:
//
//   - the admission itself is a miss (the leading 1);
//   - every access during the nIn residency is an A1in hit, a*nIn of
//     them in expectation (2Q deliberately does not reorder A1in);
//   - after eviction the ghost survives min(nOut, next access); the page
//     is promoted with probability pg = 1-(1-a)^nOut, and the promoting
//     access is itself a miss (the ghost holds no page data);
//   - in Am, every inter-access gap <= nAm is a hit; the number of hits
//     is geometric with mean q/(1-q), q = 1-(1-a)^nAm, after which the
//     page idles nAm queries and leaves silently (Am evictions leave no
//     ghost). The next access starts the next cycle.
//
// Renewal reward with access rate a gives cycle length R/a queries where
// R is the expected accesses per cycle, so every per-cycle expectation
// divides by R to become a per-query rate or an occupancy.
func twoQPage(a float64, w twoQWindows) (occIn, occOut, occAm, miss float64) {
	pg := 1 - pow1m(a, w.nOut)
	q := 1 - pow1m(a, w.nAm)
	if pg > 0 && 1-q < 1e-12 {
		// Once promoted the page never leaves Am: the cycle is infinite
		// and the page converges to permanent Am residency.
		return 0, 0, 1, 0
	}
	var amHits, amTime float64
	if q > 0 && q < 1 {
		amHits = q / (1 - q)
		// Mean hit gap E[G | G <= nAm]: truncated-geometric first moment.
		gbar := (1 - pow1m(a, w.nAm)*(1+a*w.nAm)) / (a * q)
		amTime = amHits*gbar + w.nAm
	}
	r := 1 + a*w.nIn + pg*(1+amHits)
	occIn = a * w.nIn / r
	occOut = pg / r // ghost time pg/a per cycle, over cycle length r/a
	occAm = a * pg * amTime / r
	miss = a * (1 + pg) / r
	return occIn, occOut, occAm, miss
}

// twoQOccupancies sums the per-queue occupancies over all pages.
func twoQOccupancies(probs []float64, w twoQWindows) (in, out, am float64) {
	for _, a := range probs {
		if a <= 0 {
			continue
		}
		i, o, m, _ := twoQPage(a, w)
		in += i
		out += o
		am += m
	}
	return in, out, am
}

// twoQWindowMax bounds the window search. pow1m underflows to 0 long
// before this, so pushing further cannot change any occupancy.
const twoQWindowMax = 1e16

// solveTwoQWindows closes the model: find windows whose expected
// occupancies fill each queue to its capacity,
//
//	sum occIn = Kin,  sum occOut = Kout,  sum occAm = B - Kin,
//
// by coordinate bisection — each occupancy sum is monotone increasing in
// its own window with the others held fixed, so each coordinate step is
// a clean binary search; a few outer rounds absorb the cross-coupling
// through the shared cycle length. When a queue's occupancy saturates
// below its capacity (the queue can hold every page it will ever see)
// the window pegs at the search bound, which the evaluators treat as
// "never evicted".
func solveTwoQWindows(probs []float64, kin, kout, amCap float64) twoQWindows {
	w := twoQWindows{nIn: 1, nOut: 1, nAm: 1}
	fit := func(target float64, get func(twoQWindows) float64, set func(*twoQWindows, float64)) {
		lo, hi := 0.0, twoQWindowMax
		probe := w
		set(&probe, hi)
		if get(probe) <= target {
			set(&w, hi)
			return
		}
		for i := 0; i < 100 && hi-lo > 1e-9*(1+lo); i++ {
			mid := lo + (hi-lo)/2
			set(&probe, mid)
			if get(probe) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		set(&w, lo+(hi-lo)/2)
	}
	for round := 0; round < 50; round++ {
		prev := w
		fit(kin, func(p twoQWindows) float64 { i, _, _ := twoQOccupancies(probs, p); return i },
			func(p *twoQWindows, v float64) { p.nIn = v })
		fit(kout, func(p twoQWindows) float64 { _, o, _ := twoQOccupancies(probs, p); return o },
			func(p *twoQWindows, v float64) { p.nOut = v })
		fit(amCap, func(p twoQWindows) float64 { _, _, m := twoQOccupancies(probs, p); return m },
			func(p *twoQWindows, v float64) { p.nAm = v })
		if relClose(prev.nIn, w.nIn) && relClose(prev.nOut, w.nOut) && relClose(prev.nAm, w.nAm) {
			break
		}
	}
	return w
}

// relClose reports whether two window values agree to ~1e-6 relative.
func relClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-6*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// twoQ evaluates the 2Q renewal model: the expected disk accesses per
// query at steady state for a 2Q buffer of bufferSize pages under the
// buffer package's default A1in/A1out tuning. The three characteristic
// windows are solved once over the whole tree (they are global queue
// properties); each page's per-query miss rate is then one term of the
// sum. The conventions match DiskAccesses: a non-positive buffer
// degenerates to the bufferless EPT and a buffer holding every reachable
// page yields zero.
func (p *Predictor) twoQ(bufferSize int, split []float64) float64 {
	if bufferSize < 1 {
		return p.sum(0, 1, split, p.prob)
	}
	if p.sw.reachable(0) <= bufferSize {
		return 0
	}
	kin := min(TwoQDefaultKin(bufferSize), bufferSize)
	kout := TwoQDefaultKout(bufferSize)
	w := solveTwoQWindows(p.flat, float64(kin), float64(kout), float64(bufferSize-kin))
	return p.sum(0, 1, split, func(i int) float64 {
		if p.flat[i] <= 0 {
			return 0
		}
		_, _, _, miss := twoQPage(p.flat[i], w)
		return miss
	})
}

// DiskAccesses2Q returns the 2Q model's disk accesses per query.
func (p *Predictor) DiskAccesses2Q(bufferSize int) float64 {
	return p.twoQ(bufferSize, nil)
}

// DiskAccesses2QPerLevel returns DiskAccesses2Q and its split by tree
// level.
func (p *Predictor) DiskAccesses2QPerLevel(bufferSize int) (float64, []float64) {
	split := make([]float64, p.LevelCount())
	return p.twoQ(bufferSize, split), split
}

// --- optimal bound and Clock-Pro ------------------------------------

// ClockProBounds brackets Clock-Pro's steady-state disk accesses per
// query. The lower edge is the A0 optimum (DiskAccessesStatic): Clock-Pro's
// hot set chases exactly the frequently-reused pages A0 caches, and
// under the independence assumption it cannot beat A0. The upper edge is
// the LRU model: with the cold target at its maximum Clock-Pro degrades
// to plain CLOCK, which experiment ext-clock shows the LRU model tracks.
// The adaptive cold/hot split keeps the policy between these endpoints;
// ext-policy validates the bracket empirically. The two edges are
// ordered with min/max because of the documented small-buffer optimism
// of the LRU approximation.
func (p *Predictor) ClockProBounds(bufferSize int) (lo, hi float64) {
	return p.clockPro(bufferSize, nil)
}

// ClockProBoundsPerLevel returns ClockProBounds and the per-level split
// of its LRU edge — the bracket has no split of its own, and the LRU
// edge is the one a Clock-Pro buffer is monitored against.
func (p *Predictor) ClockProBoundsPerLevel(bufferSize int) (lo, hi float64, lruSplit []float64) {
	lruSplit = make([]float64, p.LevelCount())
	lo, hi = p.clockPro(bufferSize, lruSplit)
	return lo, hi, lruSplit
}

// clockPro orders the A0 optimum and the LRU model into the bracket; a
// non-nil lruSplit receives the LRU edge's per-level split.
func (p *Predictor) clockPro(bufferSize int, lruSplit []float64) (lo, hi float64) {
	opt := p.DiskAccessesStatic(bufferSize)
	lru := p.edt(0, 1, p.WarmupQueries(bufferSize), lruSplit)
	return math.Min(opt, lru), math.Max(opt, lru)
}

// --- sharding -------------------------------------------------------

// shardedCapacity splits capacity round-robin across n shards exactly
// like buffer.NewSharded: shard s gets capacity/n plus one of the
// capacity mod n leftovers.
func shardedCapacity(capacity, n, s int) int {
	c := capacity / n
	if s < capacity%n {
		c++
	}
	return c
}

// sharded models the sharded buffer pool: page p lives in shard
// p mod shards, each shard runs its own LRU over its round-robin slice
// of the capacity, and shards do not share frames. The model is the sum
// of per-shard EDTs over the induced partition of the access
// probabilities, each shard at its own fill point; a strided subset has
// no suffix in the sweeper's tables, so that fill point comes from the
// reference search over the gathered slice. shards <= 1 is exactly
// DiskAccesses. Because page IDs are assigned in level order, the modulo
// partition spreads each level — and with it the hot set — nearly evenly
// across shards, so the prediction stays within a few percent of the
// unsharded model: the analytic statement of the shards=1 vs shards=N
// equivalence figure. (Both directions of deviation occur: a partitioned
// LRU cannot balance hot pages across shard boundaries, while the
// Bhide–Dan–Dias fill-point approximation applied per shard is itself
// slightly optimistic.)
func (p *Predictor) sharded(bufferSize, shards int, split []float64) float64 {
	if shards > bufferSize {
		shards = bufferSize // mirrors buffer.NewShardedPool's clamp
	}
	if shards <= 1 {
		return p.edt(0, 1, p.WarmupQueries(bufferSize), split)
	}
	var e float64
	shard := make([]float64, 0, (len(p.flat)+shards-1)/shards)
	for s := 0; s < shards; s++ {
		shard = shard[:0]
		for i := s; i < len(p.flat); i += shards {
			shard = append(shard, p.flat[i])
		}
		e += p.edt(s, shards, WarmupQueries(shard, shardedCapacity(bufferSize, shards, s)), split)
	}
	return e
}

// DiskAccessesSharded models a sharded LRU pool over this tree (page
// IDs in level order, matching rtree.AssignPageIDs and the simulator).
func (p *Predictor) DiskAccessesSharded(bufferSize, shards int) float64 {
	return p.sharded(bufferSize, shards, nil)
}

// DiskAccessesShardedPerLevel returns DiskAccessesSharded and its split
// by tree level: every page's contribution lands in the level the page
// belongs to (the modulo slices interleave levels).
func (p *Predictor) DiskAccessesShardedPerLevel(bufferSize, shards int) (float64, []float64) {
	split := make([]float64, p.LevelCount())
	return p.sharded(bufferSize, shards, split), split
}

package pack

import (
	"math"

	"rtreebuf/internal/par"
)

// The key-sort kernel: every ordering reduces to "compute one uint64 key
// per rectangle, sort the (key, index) pairs stably by key". A stable sort
// over pairs that start in index order is a total order on (key, index),
// so the permutation it yields is unique — independent of the algorithm,
// of how many workers ran it and of where their chunks were cut — and is
// the one a stable comparison sort of the index slice produced before it.

// keyIdx is one rectangle in the kernel: its sort key and its index.
type keyIdx struct {
	key uint64
	idx int
}

const (
	// sortGrain is the fewest pairs a worker of the parallel sort gets, so
	// inputs below 2*sortGrain sort on the calling goroutine.
	sortGrain = 1 << 14
	// insertionMax is the longest input sorted by insertion: the tie runs
	// of a lexicographic order are mostly this short, and a radix pass has
	// a fixed cost of a 256-bucket histogram.
	insertionMax = 24

	radixBits    = 8
	radixBuckets = 1 << radixBits
)

// SortKeys returns the permutation that orders keys ascending, equal keys
// by ascending index.
func SortKeys(keys []uint64) []int {
	p := pairs(keys)
	sortPairs(p, make([]keyIdx, len(p)))
	return indices(p)
}

// pairs returns the kernel's input: every key with its index, in index
// order.
func pairs(keys []uint64) []keyIdx {
	p := make([]keyIdx, len(keys))
	par.Chunks(len(p), sortGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p[i] = keyIdx{keys[i], i}
		}
	})
	return p
}

// SortFloats returns the permutation that orders vals ascending by <,
// equal values (-0 and +0 are equal) by ascending index.
func SortFloats(vals []float64) []int {
	return SortKeys(floatKeys(vals))
}

// indices extracts the permutation from sorted pairs.
func indices(p []keyIdx) []int {
	perm := make([]int, len(p))
	par.Chunks(len(p), sortGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			perm[i] = p[i].idx
		}
	})
	return perm
}

// floatKeys maps each value to a key whose unsigned order is the values'
// order under <. The two zeros, equal under <, share a key. A NaN, which
// < cannot place, sorts by its bit pattern: beyond the infinity of its
// sign.
func floatKeys(vals []float64) []uint64 {
	keys := make([]uint64, len(vals))
	par.Chunks(len(keys), sortGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := vals[i]
			if v == 0 {
				v = 0 // -0 becomes +0
			}
			b := math.Float64bits(v)
			if b>>63 != 0 {
				keys[i] = ^b // negative: larger magnitude sorts first
			} else {
				keys[i] = b | 1<<63
			}
		}
	})
	return keys
}

// sortPairs sorts p stably by key, with tmp (of p's length) as scratch.
// It is an LSD radix sort, eight bits a pass, skipping every pass in which
// all keys share the digit (an order-16 Hilbert key has four digits, not
// eight). A pass over a large input is cut over the processors: each
// worker counts the digits of its chunk, the counts become offsets in
// (digit, worker) order — which is stability — and each worker scatters
// its own chunk.
func sortPairs(p, tmp []keyIdx) {
	n := len(p)
	if n <= insertionMax {
		insertionSort(p)
		return
	}
	workers := par.Workers(n, sortGrain)
	varying := make([]uint64, workers) // per worker: bits in which some key differs from p[0].key
	par.Do(workers, n, func(w, lo, hi int) {
		first, diff := p[0].key, uint64(0)
		for i := lo; i < hi; i++ {
			diff |= p[i].key ^ first
		}
		varying[w] = diff
	})
	var diff uint64
	for _, d := range varying {
		diff |= d
	}

	counts := make([][radixBuckets]int, workers)
	src, dst := p, tmp
	for shift := uint(0); shift < 64; shift += radixBits {
		if diff>>shift&(radixBuckets-1) == 0 {
			continue
		}
		radixPass(src, dst, shift, counts)
		src, dst = dst, src
	}
	if &src[0] != &p[0] {
		copy(p, src)
	}
}

// radixPass moves src to dst in the stable order of the digit at shift.
// counts has one histogram per worker.
func radixPass(src, dst []keyIdx, shift uint, counts [][radixBuckets]int) {
	countDigits(src, shift, counts)
	pos := 0
	for d := 0; d < radixBuckets; d++ {
		for w := range counts {
			pos, counts[w][d] = pos+counts[w][d], pos
		}
	}
	scatter(src, dst, shift, counts)
}

// countDigits sets counts[w] to the histogram of worker w's chunk of src.
func countDigits(src []keyIdx, shift uint, counts [][radixBuckets]int) {
	par.Do(len(counts), len(src), func(w, lo, hi int) {
		var c [radixBuckets]int
		for i := lo; i < hi; i++ {
			c[src[i].key>>shift&(radixBuckets-1)]++
		}
		counts[w] = c
	})
}

// scatter moves worker w's chunk of src to dst, the pairs with digit d to
// consecutive places from counts[w][d].
func scatter(src, dst []keyIdx, shift uint, counts [][radixBuckets]int) {
	par.Do(len(counts), len(src), func(w, lo, hi int) {
		c := counts[w]
		for i := lo; i < hi; i++ {
			d := src[i].key >> shift & (radixBuckets - 1)
			dst[c[d]] = src[i]
			c[d]++
		}
	})
}

func insertionSort(p []keyIdx) {
	for i := 1; i < len(p); i++ {
		e := p[i]
		j := i
		for ; j > 0 && p[j-1].key > e.key; j-- {
			p[j] = p[j-1]
		}
		p[j] = e
	}
}

// sortTiesBy finishes a lexicographic order: p is sorted by a first key,
// and every run of equal first keys is re-sorted, stably, by next[idx].
// Runs are in index order going in, so ties under both keys stay so.
func sortTiesBy(p, tmp []keyIdx, next []uint64) {
	for lo := 0; lo < len(p); {
		hi := lo + 1
		for hi < len(p) && p[hi].key == p[lo].key {
			hi++
		}
		if hi-lo > 1 {
			rekey(p[lo:hi], next)
			sortPairs(p[lo:hi], tmp[lo:hi])
		}
		lo = hi
	}
}

// rekey replaces each pair's key by next[idx].
func rekey(p []keyIdx, next []uint64) {
	for i := range p {
		p[i].key = next[p[i].idx]
	}
}

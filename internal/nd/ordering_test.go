package nd

import (
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The two orderings as they were before pack's key-sort kernel: a stable
// comparison sort of the index slice. The kernel must return the same
// permutations, ties included, on any number of processors.

func identity(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

func oracleHilbert(dims int, rects []Rect) []int {
	bits := HilbertBits(dims)
	keys := make([]uint64, len(rects))
	for i, r := range rects {
		keys[i] = HilbertKey(r.Center(), bits)
	}
	perm := identity(len(rects))
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm
}

func oracleNearestX(rects []Rect) []int {
	perm := identity(len(rects))
	sort.SliceStable(perm, func(a, b int) bool {
		return rects[perm[a]].Center()[0] < rects[perm[b]].Center()[0]
	})
	return perm
}

func TestNDOrderingsMatchComparisonSortOracle(t *testing.T) {
	const dims = 3
	negZero := math.Copysign(0, -1)
	inputs := []struct {
		name   string
		center func(rng *rand.Rand) Point
	}{
		{"random", func(rng *rand.Rand) Point { return randPoint(rng, dims) }},
		{"duplicate-heavy", func(rng *rand.Rand) Point {
			return Point{float64(rng.IntN(5)) / 8, float64(rng.IntN(3)) / 8, 0.5}
		}},
		{"all-equal", func(*rand.Rand) Point { return Point{0.25, 0.5, 0.75} }},
		{"signed-zeros", func(rng *rand.Rand) Point {
			zeros := []float64{negZero, 0, 0.5}
			return Point{zeros[rng.IntN(3)], zeros[rng.IntN(3)], zeros[rng.IntN(3)]}
		}},
	}
	// 1<<15 is where pack's kernel starts cutting its input over workers.
	sizes := []int{0, 1, 2, 1<<15 - 1, 1 << 15, 1<<15 + 1, 100_000}
	for _, in := range inputs {
		for _, n := range sizes {
			rng := rand.New(rand.NewPCG(uint64(n), 41))
			rects := make([]Rect, n)
			for i := range rects {
				rects[i] = PointRect(in.center(rng))
			}
			wantHS, wantNX := oracleHilbert(dims, rects), oracleNearestX(rects)
			for _, procs := range []int{1, 2, 8} {
				prev := runtime.GOMAXPROCS(procs)
				gotHS, gotNX := HilbertOrdering(dims)(rects, 8), NearestXOrdering()(rects, 8)
				runtime.GOMAXPROCS(prev)
				if !slices.Equal(gotHS, wantHS) {
					t.Errorf("hilbert %s n=%d procs=%d: permutation differs from the comparison sort's", in.name, n, procs)
				}
				if !slices.Equal(gotNX, wantNX) {
					t.Errorf("nearest-x %s n=%d procs=%d: permutation differs from the comparison sort's", in.name, n, procs)
				}
			}
		}
	}
}

// An ordering that repeats an index or leaves the range would drop some
// items and double others; Pack must refuse it at every level.
func TestNDPackRejectsNonPermutations(t *testing.T) {
	items := randItems(rand.New(rand.NewPCG(43, 44)), 3, 200)
	p := Params{Dims: 3, MaxEntries: 8}
	bad := map[string]func(perm []int){
		"duplicate index": func(perm []int) { perm[1] = perm[0] },
		"out of range":    func(perm []int) { perm[len(perm)-1] = len(perm) },
		"negative":        func(perm []int) { perm[0] = -1 },
		"short":           nil,
	}
	for name, spoil := range bad {
		for _, atLevel := range []int{0, 1} {
			calls := 0
			ord := func(rects []Rect, group int) []int {
				perm := HilbertOrdering(3)(rects, group)
				if calls++; calls-1 != atLevel {
					return perm
				}
				if spoil == nil {
					return perm[:len(perm)-1]
				}
				spoil(perm)
				return perm
			}
			_, err := Pack(p, items, ord)
			if err == nil || !strings.HasPrefix(err.Error(), "nd: ") {
				t.Errorf("%s at level %d: Pack returned %v", name, atLevel, err)
			}
		}
	}
}

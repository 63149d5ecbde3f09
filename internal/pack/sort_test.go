package pack

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/hilbert"
	"rtreebuf/internal/rtree"
)

// The orderings as they were before the key-sort kernel: a stable
// comparison sort of the index slice. They are the oracle — the kernel
// must return these permutations exactly, ties included.

func identity(n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

func oracleNX(rects []geom.Rect, _ int) []int {
	perm := identity(len(rects))
	sort.SliceStable(perm, func(a, b int) bool {
		ca, cb := rects[perm[a]].Center(), rects[perm[b]].Center()
		if ca.X != cb.X {
			return ca.X < cb.X
		}
		return ca.Y < cb.Y
	})
	return perm
}

func oracleHS(rects []geom.Rect, _ int) []int {
	keys := make([]uint64, len(rects))
	for i, r := range rects {
		c := r.Center()
		keys[i] = hilbert.EncodePoint(hilbert.DefaultOrder, c.X, c.Y)
	}
	perm := identity(len(rects))
	sort.SliceStable(perm, func(a, b int) bool { return keys[perm[a]] < keys[perm[b]] })
	return perm
}

func oracleSTR(rects []geom.Rect, groupSize int) []int {
	p := len(rects)
	perm := oracleNX(rects, groupSize)
	leaves := (p + groupSize - 1) / groupSize
	slabSize := ceilSqrt(leaves) * groupSize
	for start := 0; start < p; start += slabSize {
		slab := perm[start:min(start+slabSize, p)]
		sort.SliceStable(slab, func(a, b int) bool {
			ca, cb := rects[slab[a]].Center(), rects[slab[b]].Center()
			if ca.Y != cb.Y {
				return ca.Y < cb.Y
			}
			return ca.X < cb.X
		})
	}
	return perm
}

// kernelSizes brackets every size at which the kernel changes method.
var kernelSizes = []int{0, 1, 2, insertionMax, insertionMax + 1, 2*sortGrain - 1, 2 * sortGrain, 2*sortGrain + 1, 100_000}

// rectInputs are the shapes of input that stress a sort: no ties, mostly
// ties, only ties, and the two zeros, which compare equal and must tie.
var rectInputs = []struct {
	name string
	gen  func(rng *rand.Rand, n int) []geom.Rect
}{
	{"random", randRects},
	{"duplicate-heavy", func(rng *rand.Rand, n int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			c := geom.Point{X: float64(rng.IntN(7)) / 8, Y: float64(rng.IntN(5)) / 8}
			out[i] = geom.RectAround(c, 0.01, 0.01)
		}
		return out
	}},
	{"all-equal", func(_ *rand.Rand, n int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			out[i] = geom.Rect{MinX: 0.25, MinY: 0.5, MaxX: 0.5, MaxY: 0.75}
		}
		return out
	}},
	{"signed-zeros", func(rng *rand.Rand, n int) []geom.Rect {
		zeros := []float64{math.Copysign(0, -1), 0, 0.5}
		out := make([]geom.Rect, n)
		for i := range out {
			x, y := zeros[rng.IntN(3)], zeros[rng.IntN(3)]
			out[i] = geom.Rect{MinX: x, MinY: y, MaxX: x, MaxY: y}
		}
		return out
	}},
}

// withProcs runs f under each processor count the kernel must not care
// about.
func withProcs(t *testing.T, f func(t *testing.T, procs int)) {
	t.Helper()
	for _, procs := range []int{1, 2, 8} {
		prev := runtime.GOMAXPROCS(procs)
		f(t, procs)
		runtime.GOMAXPROCS(prev)
	}
}

func TestOrderingsMatchComparisonSortOracle(t *testing.T) {
	orderings := []struct {
		name   string
		ord    rtree.Ordering
		oracle func([]geom.Rect, int) []int
	}{
		{"nx", NearestXOrdering(), oracleNX},
		{"hs", HilbertOrdering(hilbert.DefaultOrder), oracleHS},
		{"str", STROrdering(), oracleSTR},
	}
	for _, in := range rectInputs {
		for _, n := range kernelSizes {
			rects := in.gen(rand.New(rand.NewPCG(uint64(n), 77)), n)
			for _, o := range orderings {
				for _, group := range []int{7, 100} {
					want := o.oracle(rects, group)
					withProcs(t, func(t *testing.T, procs int) {
						if got := o.ord.Order(rects, group); !slices.Equal(got, want) {
							t.Errorf("%s %s n=%d group=%d procs=%d: permutation differs from the comparison sort's (first at %d)",
								o.name, in.name, n, group, procs, firstDiff(got, want))
						}
					})
				}
			}
		}
	}
}

func firstDiff(a, b []int) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// Keys that differ in every byte take all eight radix passes; keys that
// differ in one take one.
func TestSortKeysMatchesStableSort(t *testing.T) {
	masks := []uint64{math.MaxUint64, 0xff, 0xff << 56, 0x0000_ffff_0000_ff00, 3}
	for _, mask := range masks {
		for _, n := range kernelSizes {
			rng := rand.New(rand.NewPCG(uint64(n), mask))
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() & mask
			}
			want := identity(n)
			sort.SliceStable(want, func(a, b int) bool { return keys[want[a]] < keys[want[b]] })
			withProcs(t, func(t *testing.T, procs int) {
				if got := SortKeys(keys); !slices.Equal(got, want) {
					t.Errorf("mask %#x n=%d procs=%d: differs from the stable sort (first at %d)", mask, n, procs, firstDiff(got, want))
				}
			})
		}
	}
}

func TestSortFloatsOrdersLikeLess(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{math.Inf(-1), -math.MaxFloat64, -1, -math.SmallestNonzeroFloat64, negZero, 0,
		math.SmallestNonzeroFloat64, 1, math.MaxFloat64, math.Inf(1)}
	for _, n := range kernelSizes {
		rng := rand.New(rand.NewPCG(uint64(n), 5))
		vals := make([]float64, n)
		for i := range vals {
			if rng.IntN(4) == 0 {
				vals[i] = special[rng.IntN(len(special))]
			} else {
				vals[i] = rng.NormFloat64()
			}
		}
		want := identity(n)
		sort.SliceStable(want, func(a, b int) bool { return vals[want[a]] < vals[want[b]] })
		if got := SortFloats(vals); !slices.Equal(got, want) {
			t.Errorf("n=%d: differs from the stable sort by < (first at %d)", n, firstDiff(got, want))
		}
	}
	// < cannot place a NaN; the kernel still must, the same way each time.
	vals := []float64{1, math.NaN(), math.Inf(1), math.Copysign(math.NaN(), -1), math.Inf(-1), 0}
	if got, want := fmt.Sprint(SortFloats(vals)), "[3 4 5 0 2 1]"; got != want {
		t.Errorf("NaN placement: %s, want %s", got, want)
	}
}

// BenchmarkPackLoad is the bulk load of the benchmark's set-up: 1M items
// at fan-out 100.
func BenchmarkPackLoad(b *testing.B) {
	items := randItems(rand.New(rand.NewPCG(1, 2)), 1_000_000)
	for _, alg := range []Algorithm{HilbertSort, NearestX, STR} {
		b.Run(string(alg), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := Load(alg, rtree.Params{MaxEntries: 100}, items)
				if err != nil {
					b.Fatal(err)
				}
				benchTree = tr
			}
		})
	}
}

var benchTree *rtree.Tree

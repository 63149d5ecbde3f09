package rtree

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
	"unsafe"

	"rtreebuf/internal/geom"
)

// chooseCoords are the coordinates chooseCoord draws from besides random
// ones: a small set makes exact enlargement ties and duplicate
// rectangles common, and it holds both zeros and both infinities, whose
// differences and products (Inf-Inf, 0*Inf) are NaN enlargements and
// areas.
var chooseCoords = []float64{math.Inf(-1), -1, -0.5, math.Copysign(0, -1), 0, 0.25, 0.5, 1, math.Inf(1)}

// chooseCoord returns a coordinate from chooseCoords or a random one in
// [-1, 1), by turns.
func chooseCoord(rng *rand.Rand) float64 {
	if rng.IntN(2) == 0 {
		return chooseCoords[rng.IntN(len(chooseCoords))]
	}
	return rng.Float64()*2 - 1
}

// chooseRect returns a valid rectangle: some are points, some zero-width
// or zero-height, some copies of an earlier one in prev.
func chooseRect(rng *rand.Rand, prev []entry) geom.Rect {
	if len(prev) > 0 && rng.IntN(8) == 0 {
		return prev[rng.IntN(len(prev))].rect
	}
	x0, x1, y0, y1 := chooseCoord(rng), chooseCoord(rng), chooseCoord(rng), chooseCoord(rng)
	switch rng.IntN(6) {
	case 0:
		x1 = x0
	case 1:
		y1 = y0
	case 2:
		x1, y1 = x0, y0
	}
	return geom.Rect{MinX: min(x0, x1), MinY: min(y0, y1), MaxX: max(x0, x1), MaxY: max(y0, y1)}
}

// chooseQuery returns a query rectangle inside, straddling or outside
// one of es's rectangles, or a random one.
func chooseQuery(rng *rand.Rand, es []entry) geom.Rect {
	if len(es) == 0 {
		return chooseRect(rng, nil)
	}
	r := es[rng.IntN(len(es))].rect
	switch rng.IntN(4) {
	case 0: // inside: r itself or its center
		if rng.IntN(2) == 0 {
			return r
		}
		c := r.Center()
		return geom.Rect{MinX: c.X, MinY: c.Y, MaxX: c.X, MaxY: c.Y}
	case 1: // straddling r's upper right corner
		return geom.Rect{MinX: r.MaxX - 0.125, MinY: r.MaxY - 0.125, MaxX: r.MaxX + 0.125, MaxY: r.MaxY + 0.125}
	case 2: // outside [-1, 1]², where every finite coordinate lies
		return geom.Rect{MinX: 3, MinY: -4, MaxX: 3.5, MaxY: -3}
	}
	return chooseRect(rng, nil)
}

// TestChooseSubtreeMatchesLoop holds the assembly kernel to the Go loop
// it replaces on amd64: over seeded nodes of n ∈ {0, 1, 2, 100, 103}
// entries it must choose chooseLeastLoop's entry both over the tree's
// []entry (stride 48) and over the same rectangles in a page's
// little-endian 40-byte records.
func TestChooseSubtreeMatchesLoop(t *testing.T) {
	const pageStride = 40
	rng := rand.New(rand.NewPCG(56, 57))
	var ties, nans int
	for _, n := range []int{0, 1, 2, 100, 103} {
		for round := 0; round < 400; round++ {
			es := make([]entry, 0, n)
			for range n {
				es = append(es, entry{rect: chooseRect(rng, es)})
			}
			page := make([]byte, n*pageStride)
			for i, e := range es {
				for k, v := range [4]float64{e.rect.MinX, e.rect.MinY, e.rect.MaxX, e.rect.MaxY} {
					binary.LittleEndian.PutUint64(page[i*pageStride+8*k:], math.Float64bits(v))
				}
			}
			for range 8 {
				q := chooseQuery(rng, es)
				want := chooseLeastLoop(es, q)
				got := ChooseSubtree(unsafe.Pointer(unsafe.SliceData(es)), n, int(unsafe.Sizeof(entry{})), q)
				gotPage := ChooseSubtree(unsafe.Pointer(unsafe.SliceData(page)), n, pageStride, q)
				if got != want || gotPage != want {
					t.Fatalf("n=%d q=%v: ChooseSubtree chose %d over entries and %d over page records, the loop %d\nentries: %v",
						n, q, got, gotPage, want, es)
				}
				if want >= 0 {
					enl, area := es[want].rect.Enlargement(q), es[want].rect.Area()
					for i := range want {
						if es[i].rect.Enlargement(q) == enl && es[i].rect.Area() > area {
							ties++
							break
						}
					}
					if math.IsNaN(enl) || math.IsNaN(area) {
						nans++
					}
				}
			}
		}
	}
	// The inputs must reach the branches a faulty kernel would take
	// differently: ties the area breaks, and NaN enlargements.
	if ties < 100 || nans < 100 {
		t.Fatalf("weak inputs: %d choices broke an enlargement tie by area, %d had a NaN enlargement or area", ties, nans)
	}
}

// chooseSink keeps BenchmarkChooseSubtree's choices alive.
var chooseSink int

// BenchmarkChooseSubtree is one least-enlargement choice among 100
// children, the fan-out of BenchmarkInsert's tree: the amd64 kernel and
// the Go loop over the same node.
func BenchmarkChooseSubtree(b *testing.B) {
	items := testItems(rand.New(rand.NewPCG(817, 818)), 100)
	es := make([]entry, len(items))
	for i, it := range items {
		es[i] = entry{rect: it.Rect, id: it.ID}
	}
	qs := itemRects(testItems(rand.New(rand.NewPCG(819, 820)), 256))
	for _, impl := range []struct {
		name   string
		choose func([]entry, geom.Rect) int
	}{{"kernel", chooseLeast}, {"loop", chooseLeastLoop}} {
		b.Run(impl.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				chooseSink = impl.choose(es, qs[i%len(qs)])
			}
		})
	}
}

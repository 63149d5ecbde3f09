package hilbert

import (
	"math"
	"math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"
)

// encodeBitLoop is the textbook one-bit-per-step construction Encode used
// before it became table-driven, kept as the oracle for the tables.
func encodeBitLoop(order uint, x, y uint32) uint64 {
	side := uint64(1) << order
	var d uint64
	for s := uint32(side / 2); s > 0; s /= 2 {
		var rx, ry uint32
		if x&s > 0 {
			rx = 1
		}
		if y&s > 0 {
			ry = 1
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = rotate(s, x, y, rx, ry)
	}
	return d
}

func TestEncodeMatchesBitLoopExhaustive(t *testing.T) {
	for order := uint(1); order <= 8; order++ {
		side := uint32(1) << order
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				if got, want := Encode(order, x, y), encodeBitLoop(order, x, y); got != want {
					t.Fatalf("order %d: Encode(%d,%d) = %d, bit loop says %d", order, x, y, got, want)
				}
			}
		}
	}
}

func TestEncodeMatchesBitLoopRandomHighOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	for order := uint(9); order <= MaxOrder; order++ {
		side := uint64(1) << order
		cells := [][2]uint32{{0, 0}, {uint32(side - 1), 0}, {0, uint32(side - 1)}, {uint32(side - 1), uint32(side - 1)}}
		for i := 0; i < 4000; i++ {
			cells = append(cells, [2]uint32{uint32(rng.Uint64N(side)), uint32(rng.Uint64N(side))})
		}
		for _, c := range cells {
			if got, want := Encode(order, c[0], c[1]), encodeBitLoop(order, c[0], c[1]); got != want {
				t.Fatalf("order %d: Encode(%d,%d) = %d, bit loop says %d", order, c[0], c[1], got, want)
			}
		}
	}
}

// EncodePoints is EncodePoint element by element, whatever the number of
// processors it is cut over.
func TestEncodePointsMatchesEncodePoint(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 2))
	for _, n := range []int{0, 1, 2*encodeGrain - 1, 2 * encodeGrain, 2*encodeGrain + 1, 5*encodeGrain + 7} {
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = rng.Float64()*1.2-0.1, rng.Float64()*1.2-0.1
		}
		for _, procs := range []int{1, 2, 8} {
			prev := runtime.GOMAXPROCS(procs)
			keys := EncodePoints(DefaultOrder, xs, ys)
			runtime.GOMAXPROCS(prev)
			if len(keys) != n {
				t.Fatalf("n=%d procs=%d: %d keys", n, procs, len(keys))
			}
			for i, k := range keys {
				if want := EncodePoint(DefaultOrder, xs[i], ys[i]); k != want {
					t.Fatalf("n=%d procs=%d: key %d = %d, EncodePoint says %d", n, procs, i, k, want)
				}
			}
		}
	}
}

func TestEncodeDecodeRoundTripExhaustive(t *testing.T) {
	for order := uint(1); order <= 5; order++ {
		side := uint32(1) << order
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				d := Encode(order, x, y)
				gx, gy := Decode(order, d)
				if gx != x || gy != y {
					t.Fatalf("order %d: Decode(Encode(%d,%d)=%d) = (%d,%d)", order, x, y, d, gx, gy)
				}
			}
		}
	}
}

func TestEncodeIsBijectionSmallOrders(t *testing.T) {
	for order := uint(1); order <= 5; order++ {
		side := uint64(1) << order
		seen := make([]bool, side*side)
		for y := uint32(0); y < uint32(side); y++ {
			for x := uint32(0); x < uint32(side); x++ {
				d := Encode(order, x, y)
				if d >= side*side {
					t.Fatalf("order %d: distance %d out of range", order, d)
				}
				if seen[d] {
					t.Fatalf("order %d: distance %d visited twice", order, d)
				}
				seen[d] = true
			}
		}
	}
}

// The defining continuity property: consecutive curve positions are
// adjacent grid cells (Manhattan distance exactly 1).
func TestCurveContinuity(t *testing.T) {
	for order := uint(1); order <= 7; order++ {
		side := uint64(1) << order
		px, py := Decode(order, 0)
		for d := uint64(1); d < side*side; d++ {
			x, y := Decode(order, d)
			dist := absDiff(x, px) + absDiff(y, py)
			if dist != 1 {
				t.Fatalf("order %d: step %d jumps from (%d,%d) to (%d,%d)", order, d, px, py, x, y)
			}
			px, py = x, y
		}
	}
}

func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

func TestRoundTripRandomHighOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 34))
	for _, order := range []uint{8, 16, 24, 31} {
		side := uint64(1) << order
		for i := 0; i < 2000; i++ {
			x := uint32(rng.Uint64N(side))
			y := uint32(rng.Uint64N(side))
			gx, gy := Decode(order, Encode(order, x, y))
			if gx != x || gy != y {
				t.Fatalf("order %d: roundtrip (%d,%d) -> (%d,%d)", order, x, y, gx, gy)
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	const order = 16
	side := uint32(1) << order
	f := func(x, y uint32) bool {
		x, y = x%side, y%side
		gx, gy := Decode(order, Encode(order, x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Locality: points close along the curve are geographically close — the
// property HS packing relies on. Verify the average Euclidean distance of
// curve-adjacent cells is far below that of random pairs.
func TestLocality(t *testing.T) {
	const order = 8
	side := uint64(1) << order
	total := side * side
	rng := rand.New(rand.NewPCG(9, 9))

	var adjacent, random float64
	const samples = 5000
	for i := 0; i < samples; i++ {
		d := rng.Uint64N(total - 1)
		x1, y1 := Decode(order, d)
		x2, y2 := Decode(order, d+1)
		adjacent += dist2(x1, y1, x2, y2)

		xa, ya := Decode(order, rng.Uint64N(total))
		xb, yb := Decode(order, rng.Uint64N(total))
		random += dist2(xa, ya, xb, yb)
	}
	if adjacent*100 > random {
		t.Errorf("curve locality weak: adjacent mean sq dist %g vs random %g",
			adjacent/samples, random/samples)
	}
}

func dist2(x1, y1, x2, y2 uint32) float64 {
	dx := float64(x1) - float64(x2)
	dy := float64(y1) - float64(y2)
	return dx*dx + dy*dy
}

func TestEncodePoint(t *testing.T) {
	// Corner cells.
	if got := EncodePoint(1, 0, 0); got != Encode(1, 0, 0) {
		t.Errorf("EncodePoint(0,0) = %d", got)
	}
	// Clamping: coordinates at and beyond 1.0 map to the last cell.
	if got, want := EncodePoint(4, 1.0, 1.0), Encode(4, 15, 15); got != want {
		t.Errorf("EncodePoint(1,1) = %d, want %d", got, want)
	}
	if got, want := EncodePoint(4, 2.5, -1), Encode(4, 15, 0); got != want {
		t.Errorf("EncodePoint(2.5,-1) = %d, want %d", got, want)
	}
	// Non-finite coordinates have a cell of their own choosing: NaN the
	// first, the infinities the ends.
	nan, inf := math.NaN(), math.Inf(1)
	if got, want := EncodePoint(4, nan, nan), Encode(4, 0, 0); got != want {
		t.Errorf("EncodePoint(NaN,NaN) = %d, want %d", got, want)
	}
	if got, want := EncodePoint(4, inf, -inf), Encode(4, 15, 0); got != want {
		t.Errorf("EncodePoint(+Inf,-Inf) = %d, want %d", got, want)
	}
	// Mid-square lands in a middle cell.
	x, y := Decode(8, EncodePoint(8, 0.5, 0.5))
	if x != 128 || y != 128 {
		t.Errorf("EncodePoint(0.5,0.5) decodes to (%d,%d)", x, y)
	}
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"order 0", func() { Encode(0, 0, 0) }},
		{"order too large", func() { Encode(MaxOrder+1, 0, 0) }},
		{"x out of range", func() { Encode(2, 4, 0) }},
		{"y out of range", func() { Encode(2, 0, 4) }},
		{"distance out of range", func() { Decode(2, 16) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Encode(DefaultOrder, uint32(i)&0xffff, uint32(i>>16)&0xffff)
	}
}

// BenchmarkEncodePoints is the bulk call of a 1M-item Hilbert ordering.
func BenchmarkEncodePoints(b *testing.B) {
	const n = 1_000_000
	rng := rand.New(rand.NewPCG(23, 3))
	xs, ys := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ys[i] = rng.Float64(), rng.Float64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchKeys = EncodePoints(DefaultOrder, xs, ys)
	}
}

var benchKeys []uint64

func BenchmarkEncodePoint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		EncodePoint(DefaultOrder, float64(i%1000)/1000, float64(i%997)/997)
	}
}

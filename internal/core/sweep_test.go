package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"rtreebuf/internal/geom"
)

// sweepProbSets covers the regimes the sweeper's edge cases guard:
// ordinary mixtures, zero and saturated probabilities, tiny probabilities
// (huge N*), and buffers larger than the reachable set.
func sweepProbSets() map[string][]float64 {
	rng := rand.New(rand.NewPCG(42, 7))
	uniform := make([]float64, 4000)
	for i := range uniform {
		uniform[i] = rng.Float64() * 0.01
	}
	skewed := make([]float64, 5000)
	for i := range skewed {
		skewed[i] = math.Pow(rng.Float64(), 6)
	}
	withEdges := make([]float64, 3000)
	for i := range withEdges {
		switch i % 7 {
		case 0:
			withEdges[i] = 0 // unreachable nodes
		case 1:
			withEdges[i] = 1 // always-accessed nodes (root MBRs)
		default:
			withEdges[i] = rng.Float64() * 0.3
		}
	}
	tiny := make([]float64, 2000)
	for i := range tiny {
		tiny[i] = rng.Float64() * 1e-7
	}
	return map[string][]float64{
		"uniform":   uniform,
		"skewed":    skewed,
		"withEdges": withEdges,
		"tiny":      tiny,
		"empty":     {},
		"allZero":   {0, 0, 0, 0},
		"allOne":    {1, 1, 1},
	}
}

// flatPredictor is a Predictor over a bare probability vector: one level.
func flatPredictor(probs []float64) *Predictor {
	return NewPredictorFromProbs([][]float64{probs})
}

// The sweep's contract: identical results to the reference per-size
// DiskAccesses, for unsorted inputs with duplicates, across every
// probability regime.
func TestDiskAccessesSweepMatchesPerSize(t *testing.T) {
	buffers := []int{100, 2, 500, 10, 10, 0, 1, 250, 5000, 3, 100000}
	for name, probs := range sweepProbSets() {
		t.Run(name, func(t *testing.T) {
			got := flatPredictor(probs).DiskAccessesSweep(buffers)
			if len(got) != len(buffers) {
				t.Fatalf("got %d results for %d sizes", len(got), len(buffers))
			}
			for i, b := range buffers {
				if want := DiskAccesses(probs, b); got[i] != want {
					t.Errorf("buffer %d: sweep %.17g, per-size %.17g", b, got[i], want)
				}
			}
		})
	}
}

// Order of the requested sizes must not matter.
func TestDiskAccessesSweepOrderIndependent(t *testing.T) {
	p := flatPredictor(sweepProbSets()["skewed"])
	asc := []int{2, 10, 50, 200, 1000}
	desc := []int{1000, 200, 50, 10, 2}
	a := p.DiskAccessesSweep(asc)
	d := p.DiskAccessesSweep(desc)
	for i := range asc {
		if a[i] != d[len(desc)-1-i] {
			t.Errorf("buffer %d: ascending %.17g != descending %.17g", asc[i], a[i], d[len(desc)-1-i])
		}
	}
	if got := p.DiskAccessesSweep(nil); len(got) != 0 {
		t.Errorf("nil sizes: got %v", got)
	}
}

// same reports whether two model outputs are the same float64, counting
// +Inf (the buffer never fills) as equal to itself.
func same(a, b float64) bool {
	return a == b || (math.IsInf(a, 1) && math.IsInf(b, 1))
}

// The package-level WarmupQueries and DiskAccesses are the oracle: the
// warm-started search must return exactly the reference N* even when
// consecutive buffer sizes share it or jump past the doubling range, and
// every Predictor view of the LRU model — plain, and pinned at every
// level boundary, where the search starts inside the sweeper's node array
// — must return the reference's floats.
func TestSweeperWarmupMatchesReference(t *testing.T) {
	buffers := []int{1, 2, 3, 10, 11, 64, 65, 1000, 100000}
	for name, probs := range sweepProbSets() {
		s := newSweeper(probs)
		prev := 0.0
		prevB := 0
		for _, b := range buffers {
			want := WarmupQueries(probs, b)
			got := s.warmupFrom(0, b, prev)
			if !same(got, want) {
				t.Errorf("%s buffer %d (prev N* %g for buffer %d): warm-start N* %g, reference %g",
					name, b, prev, prevB, got, want)
			}
			prev, prevB = got, b
		}

		// Three levels: a root, a tenth of the rest, the remainder.
		cut := min(1, len(probs))
		mid := cut + (len(probs)-cut)/10
		p := NewPredictorFromProbs([][]float64{probs[:cut], probs[cut:mid], probs[mid:]})
		for _, b := range buffers {
			if got, want := p.WarmupQueries(b), WarmupQueries(probs, b); !same(got, want) {
				t.Errorf("%s buffer %d: Predictor N* %g, reference %g", name, b, got, want)
			}
			if got, want := p.DiskAccesses(b), DiskAccesses(probs, b); got != want {
				t.Errorf("%s buffer %d: Predictor EDT %.17g, reference %.17g", name, b, got, want)
			}
			for pin, from := range []int{0, cut, mid, len(probs)} {
				got, err := p.DiskAccessesPinned(b, pin)
				nstar, nerr := p.WarmupQueriesPinned(b, pin)
				if from > b {
					if err == nil || nerr == nil {
						t.Errorf("%s buffer %d pin %d: %d pinned pages accepted", name, b, pin, from)
					}
					continue
				}
				if err != nil || nerr != nil {
					t.Fatalf("%s buffer %d pin %d: %v, %v", name, b, pin, err, nerr)
				}
				if want := DiskAccesses(probs[from:], b-from); got != want {
					t.Errorf("%s buffer %d pin %d: pinned EDT %.17g, reference %.17g", name, b, pin, got, want)
				}
				if want := WarmupQueries(probs[from:], b-from); !same(nstar, want) {
					t.Errorf("%s buffer %d pin %d: pinned N* %g, reference %g", name, b, pin, nstar, want)
				}
			}
		}
	}
}

func TestDiskAccessesPinnedSweepMatchesPerSize(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	perLevel := [][]float64{{1}, make([]float64, 30), make([]float64, 900)}
	for _, lvl := range perLevel[1:] {
		for i := range lvl {
			lvl[i] = rng.Float64() * 0.2
		}
	}
	p := NewPredictorFromProbs(perLevel)

	buffers := []int{1, 5, 20, 31, 32, 100, 2000}
	for pin := 0; pin <= 3; pin++ {
		vals, err := p.DiskAccessesPinnedSweep(buffers, pin)
		if err != nil {
			t.Fatalf("pin %d: %v", pin, err)
		}
		for i, b := range buffers {
			want, werr := p.DiskAccessesPinned(b, pin)
			if werr != nil {
				if !math.IsNaN(vals[i]) {
					t.Errorf("pin %d buffer %d: want NaN for infeasible pinning, got %g", pin, b, vals[i])
				}
				continue
			}
			if vals[i] != want {
				t.Errorf("pin %d buffer %d: sweep %.17g, per-size %.17g", pin, b, vals[i], want)
			}
		}
	}
	if _, err := p.DiskAccessesPinnedSweep(buffers, -1); err == nil {
		t.Error("negative pinLevels accepted")
	}
	if _, err := p.DiskAccessesPinnedSweep(buffers, len(perLevel)+1); err == nil {
		t.Error("out-of-range pinLevels accepted")
	}
}

// A Predictor-level sweep over real geometry (grid of rectangles) must
// match the per-size method it accelerates.
func TestPredictorSweepOnGeometry(t *testing.T) {
	var leaves []geom.Rect
	for x := 0; x < 40; x++ {
		for y := 0; y < 40; y++ {
			leaves = append(leaves, geom.Rect{
				MinX: float64(x) / 40, MinY: float64(y) / 40,
				MaxX: float64(x)/40 + 0.025, MaxY: float64(y)/40 + 0.025,
			})
		}
	}
	root := geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	qm, err := NewUniformQueries(0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPredictor([][]geom.Rect{{root}, leaves}, qm)
	buffers := []int{1, 4, 16, 64, 256, 1024, 4096}
	got := p.DiskAccessesSweep(buffers)
	for i, b := range buffers {
		if want := p.DiskAccesses(b); got[i] != want {
			t.Errorf("buffer %d: sweep %.17g, per-size %.17g", b, got[i], want)
		}
	}
}

func benchSweepProbs() []float64 {
	rng := rand.New(rand.NewPCG(3, 11))
	probs := make([]float64, 10000)
	for i := range probs {
		probs[i] = math.Pow(rng.Float64(), 4) * 0.5
	}
	return probs
}

var benchBuffers = []int{2, 5, 10, 25, 50, 75, 100, 150, 200, 300, 400, 500}

// BenchmarkDiskAccessesSweep measures a Predictor built and swept (the
// log pass is part of the cost) against...
func BenchmarkDiskAccessesSweep(b *testing.B) {
	probs := benchSweepProbs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = flatPredictor(probs).DiskAccessesSweep(benchBuffers)
	}
}

// ...BenchmarkDiskAccessesPerSize, the per-size loop it replaces.
func BenchmarkDiskAccessesPerSize(b *testing.B) {
	probs := benchSweepProbs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bs := range benchBuffers {
			_ = DiskAccesses(probs, bs)
		}
	}
}

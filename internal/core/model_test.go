package core

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"rtreebuf/internal/geom"
)

func rect(minx, miny, maxx, maxy float64) geom.Rect {
	return geom.Rect{MinX: minx, MinY: miny, MaxX: maxx, MaxY: maxy}
}

func TestUniformQueriesValidation(t *testing.T) {
	for _, tc := range []struct {
		qx, qy float64
		ok     bool
	}{
		{0, 0, true}, {0.5, 0.25, true}, {0.999, 0, true},
		{1, 0, false}, {0, 1, false}, {-0.1, 0, false}, {0, -0.1, false},
	} {
		_, err := NewUniformQueries(tc.qx, tc.qy)
		if (err == nil) != tc.ok {
			t.Errorf("NewUniformQueries(%g,%g) err=%v", tc.qx, tc.qy, err)
		}
	}
}

// TestQuerySizeChecksRefuseNaNAndInf: NaN compares false with every
// bound, so each size check must be written so that NaN fails it; the
// models unbounded above also refuse +Inf.
func TestQuerySizeChecksRefuseNaNAndInf(t *testing.T) {
	centers := []geom.Point{{X: 0.5, Y: 0.5}}
	params := AnalyticalParams{N: 100, Fanout: 10}
	for _, c := range []struct {
		name string
		make func(qx, qy float64) error
	}{
		{"NewUniformQueries", func(qx, qy float64) error { _, err := NewUniformQueries(qx, qy); return err }},
		{"NewDataDrivenQueries", func(qx, qy float64) error { _, err := NewDataDrivenQueries(qx, qy, centers); return err }},
		{"NewWeightedQueries", func(qx, qy float64) error {
			_, err := NewWeightedQueries(qx, qy, centers, []float64{1})
			return err
		}},
		{"analyticalEPT", func(qx, qy float64) error { _, err := analyticalEPT(params, qx, qy); return err }},
		{"NewAnalyticalPredictor", func(qx, qy float64) error { _, err := NewAnalyticalPredictor(params, qx, qy); return err }},
	} {
		for _, q := range [][2]float64{{math.NaN(), 0.1}, {0.1, math.NaN()}, {math.Inf(1), 0.1}, {0.1, math.Inf(1)}, {-0.1, 0.1}} {
			if c.make(q[0], q[1]) == nil {
				t.Errorf("%s accepted %gx%g", c.name, q[0], q[1])
			}
		}
		if err := c.make(0.1, 0.1); err != nil {
			t.Errorf("%s refused 0.1x0.1: %v", c.name, err)
		}
	}
}

func TestUniformPointAccessProbIsArea(t *testing.T) {
	u, _ := NewUniformQueries(0, 0)
	r := rect(0.2, 0.3, 0.6, 0.8)
	if got, want := u.AccessProb(r), r.Area(); math.Abs(got-want) > 1e-15 {
		t.Errorf("point access prob = %g, want area %g", got, want)
	}
	// Degenerate rectangle: zero probability for point queries.
	if got := u.AccessProb(geom.PointRect(geom.Point{X: 0.5, Y: 0.5})); got != 0 {
		t.Errorf("point rect prob = %g", got)
	}
}

func TestUniformRegionAccessProbInterior(t *testing.T) {
	// Away from the boundary, the corrected formula reduces to the
	// Kamel–Faloutsos extended-area divided by |U'|.
	u, _ := NewUniformQueries(0.1, 0.2)
	r := rect(0.4, 0.4, 0.5, 0.5)
	want := (0.1 + 0.1) * (0.1 + 0.2) / (0.9 * 0.8)
	if got := u.AccessProb(r); math.Abs(got-want) > 1e-12 {
		t.Errorf("interior prob = %g, want %g", got, want)
	}
}

func TestUniformRegionAccessProbBoundary(t *testing.T) {
	// The paper's Fig. 3b example: a large query and a rectangle near the
	// corner must NOT yield probability > 1.
	u, _ := NewUniformQueries(0.9, 0.9)
	r := rect(0, 0, 0.2, 0.2)
	got := u.AccessProb(r)
	if got > 1 || got < 0 {
		t.Fatalf("boundary prob = %g outside [0,1]", got)
	}
	// With qx=qy=0.9 every rectangle overlapping U' is always hit:
	// U' = [0.9,1]^2, extended rect spans beyond it.
	if got != 1 {
		t.Errorf("corner rect prob = %g, want 1 (query nearly covers the square)", got)
	}
	// A rectangle that no admissible query reaches: none exists in the
	// unit square for 0.9 queries, but a rect outside [0,1] is unreachable.
	if got := u.AccessProb(rect(1.5, 1.5, 1.6, 1.6)); got != 0 {
		t.Errorf("unreachable rect prob = %g", got)
	}
}

// Cross-validate the corrected access probability against Monte Carlo for
// random rectangles and query sizes — the definitional test of Sec. 3.1.
func TestUniformAccessProbMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewPCG(601, 602))
	for trial := 0; trial < 12; trial++ {
		qx, qy := rng.Float64()*0.5, rng.Float64()*0.5
		u, err := NewUniformQueries(qx, qy)
		if err != nil {
			t.Fatal(err)
		}
		r := geom.RectFromPoints(
			geom.Point{X: rng.Float64(), Y: rng.Float64()},
			geom.Point{X: rng.Float64(), Y: rng.Float64()})
		const samples = 200000
		hits := 0
		for i := 0; i < samples; i++ {
			// Query corner uniform over U'.
			cx := qx + rng.Float64()*(1-qx)
			cy := qy + rng.Float64()*(1-qy)
			q := rect(cx-qx, cy-qy, cx, cy)
			if r.Intersects(q) {
				hits++
			}
		}
		got := u.AccessProb(r)
		mc := float64(hits) / samples
		if math.Abs(got-mc) > 0.005 {
			t.Errorf("trial %d: qx=%.3f qy=%.3f r=%v: model %g vs MC %g", trial, qx, qy, r, got, mc)
		}
	}
}

func TestKamelFaloutsosUncorrected(t *testing.T) {
	k := KamelFaloutsosQueries{QX: 0.1, QY: 0.1}
	r := rect(0.4, 0.4, 0.5, 0.5)
	if got, want := k.AccessProb(r), 0.04; math.Abs(got-want) > 1e-15 {
		t.Errorf("KF prob = %g, want %g", got, want)
	}
	// The uncorrected formula would exceed 1 near the boundary; the
	// implementation caps it for the buffer model's sake.
	big := rect(0, 0, 0.95, 0.95)
	if got := (KamelFaloutsosQueries{QX: 0.9, QY: 0.9}).AccessProb(big); got != 1 {
		t.Errorf("capped KF prob = %g", got)
	}
}

func TestEPTClosedForm(t *testing.T) {
	levels := [][]geom.Rect{
		{rect(0, 0, 1, 1)},
		{rect(0, 0, 0.5, 1), rect(0.5, 0, 1, 1)},
	}
	// A = 1 + 0.5 + 0.5 = 2; Lx = 1+0.5+0.5 = 2; Ly = 3; M = 3.
	if got := eptClosedForm(levels, 0, 0); math.Abs(got-2) > 1e-15 {
		t.Errorf("EPT(0,0) = %g", got)
	}
	want := 2.0 + 0.1*3 + 0.2*2 + 3*0.1*0.2
	if got := eptClosedForm(levels, 0.1, 0.2); math.Abs(got-want) > 1e-12 {
		t.Errorf("EPT(0.1,0.2) = %g, want %g", got, want)
	}
	// Closed form equals the sum of raw (uncapped) extended areas
	// (w+qx)(h+qy); AccessProb caps at 1 for the buffer model, so compare
	// against the raw formula here.
	var sum float64
	for _, lvl := range levels {
		for _, r := range lvl {
			sum += (r.Width() + 0.1) * (r.Height() + 0.2)
		}
	}
	if math.Abs(sum-want) > 1e-12 {
		t.Errorf("raw extended-area sum %g != closed form %g", sum, want)
	}
}

func TestDataDrivenQueries(t *testing.T) {
	centers := []geom.Point{{X: 0.1, Y: 0.1}, {X: 0.2, Y: 0.2}, {X: 0.8, Y: 0.8}, {X: 0.9, Y: 0.9}}
	dd, err := NewDataDrivenQueries(0, 0, centers)
	if err != nil {
		t.Fatal(err)
	}
	// Point queries: fraction of centers inside the MBR (Eq. 4 with y=x).
	if got := dd.AccessProb(rect(0, 0, 0.5, 0.5)); got != 0.5 {
		t.Errorf("dd point prob = %g", got)
	}
	// Region queries: centers within the expanded rectangle count too.
	dd2, _ := NewDataDrivenQueries(0.25, 0.25, centers)
	// Expanding [0,0.5]^2 by 0.25 about its center gives [-0.125,0.625]^2:
	// still 2 of 4 centers.
	if got := dd2.AccessProb(rect(0, 0, 0.5, 0.5)); got != 0.5 {
		t.Errorf("dd region prob = %g", got)
	}
	// Bigger expansion reaches (0.8,0.8) but not (0.9,0.9): expanding
	// [0,0.5]^2 by 0.6 about its center (0.25,0.25) gives [-0.3,0.8]^2.
	dd3, _ := NewDataDrivenQueries(0.6, 0.6, centers)
	if got := dd3.AccessProb(rect(0, 0, 0.5, 0.5)); got != 0.75 {
		t.Errorf("dd wide prob = %g", got)
	}
}

func TestDataDrivenValidation(t *testing.T) {
	if _, err := NewDataDrivenQueries(0, 0, nil); err == nil {
		t.Error("empty centers accepted")
	}
	if _, err := NewDataDrivenQueries(-1, 0, []geom.Point{{X: 0, Y: 0}}); err == nil {
		t.Error("negative size accepted")
	}
}

// Data-driven probabilities against brute force on random data.
func TestDataDrivenMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(603, 604))
	centers := make([]geom.Point, 2000)
	for i := range centers {
		centers[i] = geom.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	dd, err := NewDataDrivenQueries(0.07, 0.03, centers)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		r := geom.RectFromPoints(
			geom.Point{X: rng.Float64(), Y: rng.Float64()},
			geom.Point{X: rng.Float64(), Y: rng.Float64()})
		expanded := r.ExpandTotal(0.07, 0.03)
		count := 0
		for _, c := range centers {
			if expanded.ContainsPoint(c) {
				count++
			}
		}
		want := float64(count) / float64(len(centers))
		if got := dd.AccessProb(r); math.Abs(got-want) > 1e-12 {
			t.Fatalf("dd prob = %g, want %g", got, want)
		}
	}
}

func TestPow1m(t *testing.T) {
	cases := []struct{ a, n, want float64 }{
		{0, 100, 1},
		{1, 5, 0},
		{1, 0, 1},
		{0.5, 1, 0.5},
		{0.5, 2, 0.25},
		{-0.1, 3, 1}, // clamped
	}
	for _, tc := range cases {
		if got := pow1m(tc.a, tc.n); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("pow1m(%g,%g) = %g, want %g", tc.a, tc.n, got, tc.want)
		}
	}
	// Tiny probability, huge N: log-space beats naive Pow's underflow of
	// the base rounding (1-1e-17 == 1.0 in float64).
	if got := pow1m(1e-12, 1e12); math.Abs(got-math.Exp(-1)) > 1e-3 {
		t.Errorf("pow1m tiny = %g, want ~1/e", got)
	}
}

func TestDistinctNodes(t *testing.T) {
	probs := []float64{0.5, 0.25, 1.0, 0.0}
	if got := DistinctNodes(probs, 0); got != 0 {
		t.Errorf("D(0) = %g", got)
	}
	want1 := 0.5 + 0.25 + 1.0 + 0.0
	if got := DistinctNodes(probs, 1); math.Abs(got-want1) > 1e-12 {
		t.Errorf("D(1) = %g, want %g (sum of probs)", got, want1)
	}
	// Monotone non-decreasing, asymptote = number of reachable nodes.
	prev := 0.0
	for n := 1.0; n < 1e6; n *= 4 {
		d := DistinctNodes(probs, n)
		if d < prev-1e-12 {
			t.Fatalf("D not monotone at N=%g", n)
		}
		prev = d
	}
	if math.Abs(prev-3) > 1e-6 {
		t.Errorf("D asymptote = %g, want 3 (zero-prob node unreachable)", prev)
	}
}

func TestWarmupQueries(t *testing.T) {
	probs := []float64{0.5, 0.25, 0.125, 0.9, 0.3, 0.01}
	for _, b := range []int{1, 2, 3, 4, 5} {
		nstar := WarmupQueries(probs, b)
		if math.IsInf(nstar, 1) {
			if b < 6 {
				t.Fatalf("B=%d: N* infinite with 6 reachable nodes", b)
			}
			continue
		}
		// Defining property: smallest N with D(N) >= B.
		if DistinctNodes(probs, nstar) < float64(b) {
			t.Errorf("B=%d: D(N*)=%g < B", b, DistinctNodes(probs, nstar))
		}
		if nstar > 0 && DistinctNodes(probs, nstar-1) >= float64(b) {
			t.Errorf("B=%d: N*=%g not minimal", b, nstar)
		}
	}
	// Buffer >= reachable nodes: never fills.
	if got := WarmupQueries(probs, 6); !math.IsInf(got, 1) {
		t.Errorf("B=6: N* = %g, want +Inf", got)
	}
	if got := WarmupQueries(probs, 0); got != 0 {
		t.Errorf("B=0: N* = %g", got)
	}
}

func TestDiskAccessesLimits(t *testing.T) {
	probs := []float64{0.4, 0.2, 0.1, 0.6, 0.05}
	ept := 0.0
	for _, p := range probs {
		ept += p
	}
	// Huge buffer: zero steady-state accesses.
	if got := DiskAccesses(probs, 100); got != 0 {
		t.Errorf("huge buffer EDT = %g", got)
	}
	// EDT is bounded by EPT and non-increasing in buffer size.
	prev := math.Inf(1)
	for b := 1; b <= 5; b++ {
		e := DiskAccesses(probs, b)
		if e > ept+1e-12 {
			t.Errorf("EDT(%d)=%g exceeds EPT=%g", b, e, ept)
		}
		if e > prev+1e-12 {
			t.Errorf("EDT increased at B=%d", b)
		}
		prev = e
	}
}

// Property: for random probability vectors, EDT in [0, EPT], monotone in
// B, and D(N*) >= B whenever N* is finite.
func TestBufferModelQuick(t *testing.T) {
	f := func(raw []float64, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		probs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			p := math.Abs(v)
			p -= math.Floor(p) // into [0,1)
			probs = append(probs, p)
		}
		bufferSize := int(b%32) + 1
		edt := DiskAccesses(probs, bufferSize)
		ept := 0.0
		for _, p := range probs {
			ept += p
		}
		if edt < 0 || edt > ept+1e-9 {
			return false
		}
		nstar := WarmupQueries(probs, bufferSize)
		if !math.IsInf(nstar, 1) && DistinctNodes(probs, nstar) < float64(bufferSize)-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// eptClosedForm evaluates Equation 2 of the paper, the Kamel–Faloutsos
// closed form for the expected number of nodes accessed by an
// (uncorrected) uniform region query:
//
//	EPT(qx,qy) = A + qx*Ly + qy*Lx + M*qx*qy
//
// where A, Lx, Ly are the total area and per-axis extent sums of all node
// MBRs and M is the node count. With qx = qy = 0 it reduces to Equation 1,
// EPT(0,0) = A.
func eptClosedForm(levels [][]geom.Rect, qx, qy float64) float64 {
	var a, lx, ly float64
	m := 0
	for _, lvl := range levels {
		m += len(lvl)
		for _, r := range lvl {
			a += r.Area()
			lx += r.Width()
			ly += r.Height()
		}
	}
	return a + qx*ly + qy*lx + float64(m)*qx*qy
}

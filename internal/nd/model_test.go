package nd

import (
	"math"
	"testing"

	"rtreebuf/internal/sim"
)

// TestNDExtentChecksRefuseNaNAndInf: NaN compares false with every
// bound, so each extent check must be written so that NaN fails it; the
// data-driven model, unbounded above, also refuses +Inf.
func TestNDExtentChecksRefuseNaNAndInf(t *testing.T) {
	centers := []Point{{0.5, 0.5}}
	for _, c := range []struct {
		name string
		make func(q []float64) error
	}{
		{"NewUniformQueries", func(q []float64) error { _, err := NewUniformQueries(q); return err }},
		{"NewDataDrivenQueries", func(q []float64) error { _, err := NewDataDrivenQueries(q, centers); return err }},
	} {
		for _, q := range [][]float64{{math.NaN(), 0.1}, {0.1, math.NaN()}, {math.Inf(1), 0.1}, {0.1, math.Inf(1)}, {-0.1, 0.1}} {
			if c.make(q) == nil {
				t.Errorf("%s accepted %v", c.name, q)
			}
		}
		if err := c.make([]float64{0.1, 0.1}); err != nil {
			t.Errorf("%s refused [0.1 0.1]: %v", c.name, err)
		}
	}
}

func TestNDUniformQueriesValidation(t *testing.T) {
	if _, err := NewUniformQueries([]float64{0.1}); err == nil {
		t.Error("1-dim query accepted")
	}
	if _, err := NewUniformQueries([]float64{0.1, 1.0}); err == nil {
		t.Error("extent 1 accepted")
	}
	if _, err := NewUniformQueries([]float64{-0.1, 0.2}); err == nil {
		t.Error("negative extent accepted")
	}
	if _, err := NewUniformQueries([]float64{0, 0, 0}); err != nil {
		t.Error("point query rejected")
	}
}

func TestNDPointAccessProbIsVolume(t *testing.T) {
	qm, _ := NewUniformQueries([]float64{0, 0, 0})
	r, _ := NewRect(Point{0.1, 0.2, 0.3}, Point{0.5, 0.6, 0.7})
	if got, want := qm.AccessProb(r), r.Volume(); math.Abs(got-want) > 1e-15 {
		t.Errorf("prob = %g, want %g", got, want)
	}
}

func TestNDRegionAccessProbInterior(t *testing.T) {
	qm, _ := NewUniformQueries([]float64{0.1, 0.2, 0.1})
	r, _ := NewRect(Point{0.4, 0.4, 0.4}, Point{0.5, 0.5, 0.5})
	want := (0.2 / 0.9) * (0.3 / 0.8) * (0.2 / 0.9)
	if got := qm.AccessProb(r); math.Abs(got-want) > 1e-12 {
		t.Errorf("prob = %g, want %g", got, want)
	}
}

// TestNDUniformAccessProbOutsideCube is the N-D twin of core's
// TestUniformRegionAccessProbBoundary: an MBR outside the unit cube on
// both axes, which no query reaches, has access probability 0. Its
// clipped extent is negative on each axis, so a guard that tests only
// for an exact zero extent multiplies two negative factors into a
// positive probability.
func TestNDUniformAccessProbOutsideCube(t *testing.T) {
	qm, err := NewUniformQueries([]float64{0.1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewRect(Point{2, 2}, Point{3, 3})
	if got := qm.AccessProb(r); got != 0 {
		t.Errorf("AccessProb of [2,3]^2 = %g, want 0", got)
	}
}

func TestNDDataDriven(t *testing.T) {
	centers := []Point{{0.1, 0.1, 0.1}, {0.9, 0.9, 0.9}, {0.2, 0.2, 0.2}, {0.8, 0.8, 0.8}}
	dd, err := NewDataDrivenQueries([]float64{0, 0, 0}, centers)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewRect(Point{0, 0, 0}, Point{0.5, 0.5, 0.5})
	if got := dd.AccessProb(r); got != 0.5 {
		t.Errorf("prob = %g", got)
	}
	if _, err := NewDataDrivenQueries([]float64{0, 0}, nil); err == nil {
		t.Error("empty centers accepted")
	}
	if _, err := NewDataDrivenQueries([]float64{-1, 0}, centers); err == nil {
		t.Error("negative extent accepted")
	}
}

func TestNDPredictorBasics(t *testing.T) {
	items := PointItems(UniformPoints(3, 5000, 9))
	tr, err := Pack(Params{Dims: 3, MaxEntries: 25}, items, HilbertOrdering(3))
	if err != nil {
		t.Fatal(err)
	}
	qm, _ := NewUniformQueries([]float64{0, 0, 0})
	pred := NewPredictor(tr.Levels(), qm)
	if pred.NodeCount() != tr.NodeCount() {
		t.Errorf("NodeCount = %d", pred.NodeCount())
	}
	if pred.NodesVisited() <= 0 {
		t.Errorf("EPT = %g", pred.NodesVisited())
	}
	prev := math.Inf(1)
	for _, b := range []int{1, 10, 50, 200, pred.NodeCount() + 1} {
		e := pred.DiskAccesses(b)
		if e > prev+1e-12 {
			t.Fatalf("EDT increased at B=%d", b)
		}
		prev = e
	}
	if pred.DiskAccesses(pred.NodeCount()+1) != 0 {
		t.Error("full buffer still misses")
	}
	if nstar := pred.WarmupQueries(10); nstar <= 0 {
		t.Errorf("N* = %g", nstar)
	}
}

// Model vs simulation in 3-D — the paper's Table 1 methodology carried to
// higher dimension, closing the loop on the generalization claim.
func TestNDModelAgreesWithSimulation(t *testing.T) {
	items := PointItems(UniformPoints(3, 8000, 31))
	tr, err := Pack(Params{Dims: 3, MaxEntries: 25}, items, HilbertOrdering(3))
	if err != nil {
		t.Fatal(err)
	}
	levels := tr.Levels()
	qm, _ := NewUniformQueries([]float64{0, 0, 0})
	pred := NewPredictor(levels, qm)
	for _, b := range []int{25, 100} {
		next, levelOf, err := PointSource(levels, 77)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.RunSource(next, levelOf, sim.Config{
			BufferSize: b, Batches: 1, BatchSize: 60000, Warmup: 20000,
		})
		if err != nil {
			t.Fatal(err)
		}
		simulated, model := res.DiskPerQuery.Mean, pred.DiskAccesses(b)
		if simulated == 0 && model == 0 {
			continue
		}
		rel := math.Abs(model-simulated) / math.Max(simulated, 1e-9)
		if rel > 0.10 {
			t.Errorf("B=%d: model %.4f vs sim %.4f (%.1f%%)", b, model, simulated, 100*rel)
		}
	}
}

func TestNDSimulateValidation(t *testing.T) {
	if _, _, err := PointSource(nil, 1); err == nil {
		t.Error("empty geometry accepted")
	}
	items := PointItems(UniformPoints(2, 100, 1))
	tr, _ := Pack(Params{Dims: 2, MaxEntries: 10}, items, HilbertOrdering(2))
	next, levelOf, err := PointSource(tr.Levels(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.NodeCount(); len(levelOf) != want || levelOf[0] != 0 || levelOf[want-1] != len(tr.Levels())-1 {
		t.Errorf("levelOf %v does not number %d pages level-major", levelOf, want)
	}
	if _, err := sim.RunSource(next, levelOf, sim.Config{BufferSize: 0}); err == nil {
		t.Error("zero buffer accepted")
	}
}

// The curse of dimensionality: at fixed data size, node capacity, and
// query *selectivity* (query volume, i.e. expected result share), region
// queries touch more nodes as d grows — node MBRs and query boxes both
// stretch along every axis. At fixed per-axis extent the effect inverts
// (the query volume collapses as 0.1^d), which is why selectivity is the
// right control variable here.
func TestNDDimensionalityEffect(t *testing.T) {
	const n, capacity = 5000, 25
	const selectivity = 0.01 // query covers 1% of the unit cube
	prevEPT := 0.0
	for _, dims := range []int{2, 3, 4} {
		items := PointItems(UniformPoints(dims, n, uint64(dims)))
		tr, err := Pack(Params{Dims: dims, MaxEntries: capacity}, items, HilbertOrdering(dims))
		if err != nil {
			t.Fatal(err)
		}
		side := math.Pow(selectivity, 1/float64(dims))
		q := make([]float64, dims)
		for d := range q {
			q[d] = side
		}
		qm, err := NewUniformQueries(q)
		if err != nil {
			t.Fatal(err)
		}
		pred := NewPredictor(tr.Levels(), qm)
		ept := pred.NodesVisited()
		if ept <= prevEPT {
			t.Errorf("dims %d: EPT %.2f did not grow over %.2f", dims, ept, prevEPT)
		}
		prevEPT = ept
	}
}

package sim

import (
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"rtreebuf/internal/core"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

// fixtureLevels builds a real packed tree over synthetic regions and
// returns its level MBRs.
func fixtureLevels(t testing.TB, n, capacity int) ([][]geom.Rect, []geom.Rect) {
	t.Helper()
	rects := datagen.SyntheticRegions(n, 77)
	tr, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: capacity}, datagen.Items(rects))
	if err != nil {
		t.Fatal(err)
	}
	return tr.Levels(), rects
}

// TestWorkloadSizeChecksRefuseNaNAndInf: NaN compares false with every
// bound, so each size check must be written so that NaN fails it; the
// workloads unbounded above also refuse +Inf.
func TestWorkloadSizeChecksRefuseNaNAndInf(t *testing.T) {
	centers := []geom.Point{{X: 0.5, Y: 0.5}}
	for _, c := range []struct {
		name string
		make func(qx, qy float64) error
	}{
		{"NewUniformRegions", func(qx, qy float64) error { _, err := NewUniformRegions(qx, qy); return err }},
		{"NewDataDriven", func(qx, qy float64) error { _, err := NewDataDriven(qx, qy, centers); return err }},
		{"NewWeightedCenters", func(qx, qy float64) error {
			_, err := NewWeightedCenters(qx, qy, centers, []float64{1})
			return err
		}},
		{"NewRandomWalk", func(qx, qy float64) error { _, err := NewRandomWalk(qx * qy); return err }},
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

func TestWorkloadValidation(t *testing.T) {
	if _, err := NewUniformRegions(1, 0); err == nil {
		t.Error("region size 1 accepted")
	}
	if _, err := NewUniformRegions(-0.1, 0); err == nil {
		t.Error("negative region accepted")
	}
	if _, err := NewDataDriven(0, 0, nil); err == nil {
		t.Error("empty centers accepted")
	}
	if _, err := NewDataDriven(-1, 0, []geom.Point{{X: 0, Y: 0}}); err == nil {
		t.Error("negative data-driven size accepted")
	}
	for _, w := range []Workload{UniformPoints{}, mustRegions(t, 0.1, 0.2), mustDataDriven(t)} {
		if w.Describe() == "" {
			t.Error("empty workload description")
		}
	}
}

func mustRegions(t testing.TB, qx, qy float64) UniformRegions {
	t.Helper()
	w, err := NewUniformRegions(qx, qy)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustDataDriven(t testing.TB) DataDriven {
	t.Helper()
	w, err := NewDataDriven(0.05, 0.05, []geom.Point{{X: 0.5, Y: 0.5}, {X: 0.2, Y: 0.8}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestUniformRegionsCornerDomain(t *testing.T) {
	w := mustRegions(t, 0.25, 0.1)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 10000; i++ {
		p := w.Next(rng)
		if p.X < 0.25 || p.X > 1 || p.Y < 0.1 || p.Y > 1 {
			t.Fatalf("corner %v outside U'", p)
		}
	}
}

func TestRunValidation(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	if _, err := Run(levels, UniformPoints{}, Config{BufferSize: 0}); err == nil {
		t.Error("zero buffer accepted")
	}
	if _, err := Run([][]geom.Rect{{}}, UniformPoints{}, Config{BufferSize: 5}); err == nil {
		t.Error("empty geometry accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	cfg := Config{BufferSize: 20, Batches: 4, BatchSize: 2000, Seed: 99}
	a, err := Run(levels, UniformPoints{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(levels, UniformPoints{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.DiskPerQuery.Mean != b.DiskPerQuery.Mean || a.NodesPerQuery.Mean != b.NodesPerQuery.Mean {
		t.Error("same seed produced different results")
	}
	c, err := Run(levels, UniformPoints{}, Config{BufferSize: 20, Batches: 4, BatchSize: 2000, Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	if a.DiskPerQuery.Mean == c.DiskPerQuery.Mean {
		t.Error("different seeds produced byte-identical results (suspicious)")
	}
}

func TestIndexMatchesBruteForce(t *testing.T) {
	levels, rects := fixtureLevels(t, 3000, 25)
	centers := geom.Centers(rects)
	workloads := []Workload{
		UniformPoints{},
		mustRegions(t, 0.08, 0.03),
		DataDriven{QX: 0.02, QY: 0.02, Centers: centers},
	}
	for _, w := range workloads {
		cfg := Config{BufferSize: 30, Batches: 3, BatchSize: 3000, Seed: 1234}
		fast, err := Run(levels, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g, err := prepare(levels, w, false)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := RunPrepared(g, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if fast.DiskPerQuery.Mean != slow.DiskPerQuery.Mean ||
			fast.NodesPerQuery.Mean != slow.NodesPerQuery.Mean {
			t.Errorf("%s: indexed %g/%g vs brute %g/%g", w.Describe(),
				fast.DiskPerQuery.Mean, fast.NodesPerQuery.Mean,
				slow.DiskPerQuery.Mean, slow.NodesPerQuery.Mean)
		}
	}
}

// Prepare once, run many: RunPrepared over a shared geometry must equal
// Run for every buffer size.
func TestPreparedReuseMatchesRun(t *testing.T) {
	levels, _ := fixtureLevels(t, 3000, 25)
	w := mustRegions(t, 0.1, 0.1)
	g, err := Prepare(levels, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{5, 20, 80} {
		cfg := Config{BufferSize: b, Batches: 4, BatchSize: 1500, Seed: 11}
		want, err := Run(levels, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunPrepared(g, w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("buffer %d: RunPrepared differs from Run", b)
		}
	}
}

// RunSource is the simulator loop every entry point shares: fed a
// Geometry's own source it must reproduce RunPrepared bit for bit —
// pinning and the brute-force scan included.
func TestRunSourceMatchesRunPrepared(t *testing.T) {
	levels, _ := fixtureLevels(t, 3000, 25)
	w := mustRegions(t, 0.05, 0.05)
	indexed, err := Prepare(levels, w)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := prepare(levels, w, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g   *Geometry
		cfg Config
	}{
		{indexed, Config{BufferSize: 20, Batches: 4, BatchSize: 2000, Seed: 99}},
		{indexed, Config{BufferSize: 50, Batches: 6, BatchSize: 1500, Seed: 7, PinLevels: 1}},
		{scan, Config{BufferSize: 10, Batches: 3, BatchSize: 1000, Seed: 3}},
	} {
		want, err := RunPrepared(tc.g, w, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunSource(tc.g.source(w, tc.cfg.Seed), tc.g.levelOf, tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%+v: RunSource differs from RunPrepared:\nprepared %+v\nsource   %+v", tc.cfg, want, got)
		}
	}
	if _, err := RunSource(indexed.source(w, 1), nil, Config{BufferSize: 5}); err == nil {
		t.Error("source without pages accepted")
	}
	if _, err := RunSource(indexed.source(w, 1), indexed.levelOf, Config{}); err == nil {
		t.Error("zero buffer accepted")
	}
}

// The paper's Table 1 in miniature: the analytic model agrees with the
// simulation within a few percent across buffer sizes and query models.
func TestSimulationAgreesWithModel(t *testing.T) {
	levels, rects := fixtureLevels(t, 5000, 25)
	centers := geom.Centers(rects)

	cases := []struct {
		name string
		w    Workload
		qm   core.QueryModel
	}{
		{"uniform points", UniformPoints{}, mustQM(t, 0, 0)},
		{"uniform regions", mustRegions(t, 0.1, 0.1), mustQM(t, 0.1, 0.1)},
		{"data driven", DataDriven{Centers: centers}, mustDDQM(t, centers)},
	}
	for _, tc := range cases {
		pred := core.NewPredictor(levels, tc.qm)
		for _, b := range []int{10, 50, 150} {
			// The model's independence assumption is only claimed for
			// buffers comfortably above one query's working set; with
			// B < 2*EPT the LRU is dominated by intra-query correlation
			// (for the paper's point queries EPT < 3, so every buffer
			// size qualifies there).
			if float64(b) < 2*pred.NodesVisited() {
				continue
			}
			res, err := Run(levels, tc.w, Config{
				BufferSize: b, Batches: 10, BatchSize: 20000, Seed: 4242,
			})
			if err != nil {
				t.Fatal(err)
			}
			model := pred.DiskAccesses(b)
			simv := res.DiskPerQuery.Mean
			if simv == 0 && model == 0 {
				continue
			}
			diff := math.Abs(model-simv) / math.Max(simv, 1e-9)
			if diff > 0.08 {
				t.Errorf("%s B=%d: model %.4f vs sim %.4f (%.1f%%)",
					tc.name, b, model, simv, 100*diff)
			}
			// Node accesses match EPT too (buffer-independent).
			eptDiff := math.Abs(pred.NodesVisited()-res.NodesPerQuery.Mean) / pred.NodesVisited()
			if eptDiff > 0.03 {
				t.Errorf("%s B=%d: EPT %.4f vs sim nodes %.4f",
					tc.name, b, pred.NodesVisited(), res.NodesPerQuery.Mean)
			}
		}
	}
}

func mustQM(t testing.TB, qx, qy float64) core.QueryModel {
	t.Helper()
	qm, err := core.NewUniformQueries(qx, qy)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

func mustDDQM(t testing.TB, centers []geom.Point) core.QueryModel {
	t.Helper()
	qm, err := core.NewDataDrivenQueries(0, 0, centers)
	if err != nil {
		t.Fatal(err)
	}
	return qm
}

func TestPinnedSimulationAgreesWithPinnedModel(t *testing.T) {
	points := datagen.SyntheticPoints(20000, 55)
	tr, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 25}, datagen.PointItems(points))
	if err != nil {
		t.Fatal(err)
	}
	levels := tr.Levels()
	pred := core.NewPredictor(levels, mustQM(t, 0, 0))

	const buffer = 300
	for pin := 0; pin <= 3 && pin < len(levels); pin++ {
		model, err := pred.DiskAccessesPinned(buffer, pin)
		if err != nil {
			continue // pinned levels exceed the buffer; nothing to compare
		}
		res, err := Run(levels, UniformPoints{}, Config{
			BufferSize: buffer, PinLevels: pin, Batches: 10, BatchSize: 20000, Seed: 777,
		})
		if err != nil {
			t.Fatal(err)
		}
		diff := math.Abs(model - res.DiskPerQuery.Mean)
		rel := diff / math.Max(res.DiskPerQuery.Mean, 0.05)
		if rel > 0.10 {
			t.Errorf("pin=%d: model %.4f vs sim %.4f", pin, model, res.DiskPerQuery.Mean)
		}
	}
}

func TestPinningTooManyLevels(t *testing.T) {
	levels, _ := fixtureLevels(t, 3000, 20)
	_, err := Run(levels, UniformPoints{}, Config{
		BufferSize: 2, PinLevels: len(levels), Batches: 2, BatchSize: 100,
	})
	if err == nil {
		t.Error("pinning more pages than the buffer holds succeeded")
	}
}

func TestResultFields(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	res, err := Run(levels, UniformPoints{}, Config{
		BufferSize: 15, Batches: 5, BatchSize: 2000, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 10000 {
		t.Errorf("Queries = %d", res.Queries)
	}
	if res.FillQueries <= 0 {
		t.Errorf("FillQueries = %d, buffer should have filled", res.FillQueries)
	}
	if res.HitRatio <= 0 || res.HitRatio >= 1 {
		t.Errorf("HitRatio = %g", res.HitRatio)
	}
	if res.DiskPerQuery.HalfWidth <= 0 {
		t.Error("no confidence interval computed")
	}
	if res.NodesPerQuery.Mean < res.DiskPerQuery.Mean {
		t.Error("node accesses below disk accesses")
	}
}

// The Bhide/Dan/Dias conjecture the buffer model rests on, verified
// empirically: the simulator's fill point is close to the model's N*.
func TestWarmupFillMatchesNStar(t *testing.T) {
	levels, _ := fixtureLevels(t, 5000, 25)
	pred := core.NewPredictor(levels, mustQM(t, 0, 0))
	const buffer = 60
	res, err := Run(levels, UniformPoints{}, Config{
		BufferSize: buffer, Batches: 2, BatchSize: 5000, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	nstar := pred.WarmupQueries(buffer)
	if math.IsInf(nstar, 1) {
		t.Skip("buffer holds the whole reachable tree")
	}
	lo, hi := nstar/3, nstar*3
	if f := float64(res.FillQueries); f < lo || f > hi {
		t.Errorf("simulated fill after %d queries, model N* = %.0f", res.FillQueries, nstar)
	}
}

func BenchmarkSimQuery(b *testing.B) {
	levels, _ := fixtureLevels(b, 20000, 50)
	res, err := Run(levels, UniformPoints{}, Config{
		BufferSize: 100, Batches: 1, BatchSize: b.N + 1, Warmup: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	_ = res
}

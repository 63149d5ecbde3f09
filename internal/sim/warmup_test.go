package sim

import (
	"math"
	"reflect"
	"testing"

	"rtreebuf/internal/core"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

// coldMisses runs the cold-start sampler and returns the cumulative
// buffer misses at each (positive, ascending) checkpoint.
func coldMisses(t *testing.T, levels [][]geom.Rect, buffer int, seed uint64, checkpoints []int) []uint64 {
	t.Helper()
	tr, err := TraceWarmup(levels, UniformPoints{}, Config{BufferSize: buffer, Seed: seed}, checkpoints)
	if err != nil {
		t.Fatal(err)
	}
	misses := make([]uint64, len(tr.Points))
	for i, pt := range tr.Points {
		misses[i] = pt.Misses
	}
	return misses
}

func TestTransientValidation(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	if _, err := TraceWarmup(levels, UniformPoints{}, Config{BufferSize: 0, Seed: 1}, []int{10}); err == nil {
		t.Error("zero buffer accepted")
	}
	if _, err := TraceWarmup(levels, UniformPoints{}, Config{BufferSize: 10, Seed: 1}, nil); err == nil {
		t.Error("no checkpoints accepted")
	}
	if _, err := TraceWarmup(nil, UniformPoints{}, Config{BufferSize: 10, Seed: 1}, []int{5}); err == nil {
		t.Error("empty geometry accepted")
	}
}

func TestTransientMonotoneAndAnchored(t *testing.T) {
	levels, _ := fixtureLevels(t, 3000, 25)
	tr, err := TraceWarmup(levels, UniformPoints{}, Config{BufferSize: 50, Seed: 9}, []int{1, 10, 100, 1000, 5000})
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i, pt := range tr.Points {
		if pt.Misses < prev {
			t.Fatalf("cumulative misses decreased at %d", i)
		}
		prev = pt.Misses
		// Until the buffer fills nothing is evicted, so every miss is the
		// first touch of a page and every first touch is a miss.
		if pt.Queries < tr.FillQueries && pt.Misses != uint64(pt.DistinctPages) {
			t.Errorf("after %d queries (fill at %d): %d misses, %d distinct pages",
				pt.Queries, tr.FillQueries, pt.Misses, pt.DistinctPages)
		}
	}
	if tr.Points[0].Misses == 0 {
		t.Error("the first query of a cold start missed nothing, not even the root")
	}
	if prev == 0 {
		t.Error("no misses after 5000 queries with buffer 50")
	}
}

// The warm-up transient of the model tracks the cold-start simulation —
// the Bhide–Dan–Dias observation the whole buffer model is built on.
func TestTransientMatchesModelCurve(t *testing.T) {
	levels, _ := fixtureLevels(t, 8000, 25)
	pred := core.NewPredictor(levels, mustQM(t, 0, 0))
	const buffer = 100
	checkpoints := []int{100, 500, 2000, 10000, 40000}

	counts := make([]float64, len(checkpoints))
	for i, c := range checkpoints {
		counts[i] = float64(c)
	}
	model := pred.WarmupCurve(buffer, counts)

	// Average several seeds: a single cold start is one sample path.
	avg := make([]float64, len(checkpoints))
	const runs = 5
	for s := uint64(1); s <= runs; s++ {
		for i, v := range coldMisses(t, levels, buffer, s*97, checkpoints) {
			avg[i] += float64(v) / runs
		}
	}
	for i := range checkpoints {
		rel := math.Abs(model[i].ExpectedMisses-avg[i]) / math.Max(avg[i], 1)
		if rel > 0.12 {
			t.Errorf("at %d queries: model %.1f vs sim %.1f (%.0f%%)",
				checkpoints[i], model[i].ExpectedMisses, avg[i], 100*rel)
		}
	}
}

func TestTransientDeterministic(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	cfg := Config{BufferSize: 25, Seed: 5}
	a, err := TraceWarmup(levels, UniformPoints{}, cfg, []int{10, 1000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := TraceWarmup(levels, UniformPoints{}, cfg, []int{10, 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed differs: %+v vs %+v", a, b)
	}
}

// TestColdStartMatchesExtWarmupRecord pins the cold-start sampler to the
// sim_misses column experiment ext-warmup printed (seed 1998, HS tree over
// the TIGER-like set at node size 100, buffer 200, uniform point queries)
// when a separate sampler, sim.Transient, produced it: the quick suite's
// 68-node tree never fills the buffer; the full-size tree fills it after
// about 200 queries, so its later rows run through eviction.
func TestColdStartMatchesExtWarmupRecord(t *testing.T) {
	checkpoints := []int{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}
	for _, tc := range []struct {
		name  string
		items int
		want  []uint64
	}{
		{"quick", datagen.TIGERLikeSize / 8, []uint64{12, 21, 38, 46, 64, 68, 68, 68, 68, 68}},
		{"full", datagen.TIGERLikeSize, []uint64{22, 35, 67, 118, 233, 425, 826, 1931, 3834, 7588}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "full" && testing.Short() {
				t.Skip("packs the full-size TIGER-like set")
			}
			tree, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 100},
				datagen.Items(datagen.TIGERLike(tc.items, 1998)))
			if err != nil {
				t.Fatal(err)
			}
			if got := coldMisses(t, tree.Levels(), 200, 1998, checkpoints); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("cold-start misses %v, want %v", got, tc.want)
			}
		})
	}
}

// TestTraceWarmup checks the observed warm-up curve: monotone distinct
// pages, fill point consistent with Run, and sane hit rates.
func TestTraceWarmup(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	cfg := Config{BufferSize: 50, Batches: 2, BatchSize: 1000, Seed: 42}
	tr, err := TraceWarmup(levels, UniformPoints{}, cfg, []int{10, 100, 100, 1000, -5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Points) != 3 {
		t.Fatalf("got %d points, want 3 (sorted, deduped, positives only): %+v", len(tr.Points), tr.Points)
	}
	prev := 0
	for _, pt := range tr.Points {
		if pt.DistinctPages < prev {
			t.Errorf("distinct pages decreased: %+v", tr.Points)
		}
		prev = pt.DistinctPages
		if pt.HitRate < 0 || pt.HitRate > 1 {
			t.Errorf("hit rate %v outside [0,1]", pt.HitRate)
		}
	}
	if tr.FillQueries == 0 {
		t.Error("buffer of 50 pages never filled in 1000 queries (suspicious)")
	}
	// The trace replays Run's stream, so its fill point equals the
	// simulator's FillQueries for the same config.
	res, err := Run(levels, UniformPoints{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FillQueries != tr.FillQueries {
		t.Errorf("trace fill %d != simulator fill %d", tr.FillQueries, res.FillQueries)
	}
	if _, err := TraceWarmup(levels, UniformPoints{}, cfg, []int{0, -1}); err == nil {
		t.Error("all-nonpositive counts accepted")
	}
}

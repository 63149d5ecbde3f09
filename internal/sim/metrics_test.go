package sim

import (
	"reflect"
	"testing"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/obs"
)

func snapValue(t *testing.T, reg *obs.Registry, fullName string) (float64, bool) {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.FullName() == fullName {
			return s.Value, true
		}
	}
	return 0, false
}

// TestResultsByteIdenticalWithMetrics is the contract the whole obs
// layer hangs on: attaching a registry must not change any numeric
// result.
func TestResultsByteIdenticalWithMetrics(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	base := Config{BufferSize: 20, Batches: 4, BatchSize: 2000, Seed: 99}

	plain, err := Run(levels, UniformPoints{}, base)
	if err != nil {
		t.Fatal(err)
	}
	instrumented := base
	instrumented.Metrics = obs.NewRegistry()
	withObs, err := Run(levels, UniformPoints{}, instrumented)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withObs) {
		t.Errorf("Run results differ with metrics attached:\n%+v\n%+v", plain, withObs)
	}
}

// TestRunMetricsContent checks the collected series agree with the
// returned Result for a serial run.
func TestRunMetricsContent(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	reg := obs.NewRegistry()
	cfg := Config{BufferSize: 20, Batches: 4, BatchSize: 2000, Seed: 99, Metrics: reg}
	res, err := Run(levels, UniformPoints{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := snapValue(t, reg, "sim_queries_total"); !ok || got != float64(res.Queries) {
		t.Errorf("sim_queries_total = %v (ok=%v), want %d", got, ok, res.Queries)
	}
	if got, ok := snapValue(t, reg, "sim_fill_query"); !ok || got != float64(res.FillQueries) {
		t.Errorf("sim_fill_query = %v (ok=%v), want %d", got, ok, res.FillQueries)
	}
	if got, ok := snapValue(t, reg, "sim_hit_ratio"); !ok || got != res.HitRatio {
		t.Errorf("sim_hit_ratio = %v (ok=%v), want %v", got, ok, res.HitRatio)
	}
	// Buffer mirror present and labeled with the default policy.
	if _, ok := snapValue(t, reg, `buffer_hits_total{policy="lru"}`); !ok {
		t.Error("buffer_hits_total{policy=lru} missing from sim registry")
	}
	// Per-level series exist for the root level.
	if _, ok := snapValue(t, reg, `buffer_level_hits_total{level="0",policy="lru"}`); !ok {
		t.Error("per-level buffer series missing from sim registry")
	}
}

// TestRunLevelSeriesSumToTotals: the replica counts every access and
// every pin at its page's level, so the per-level series split the
// policy's hits and misses exactly, under LRU and under the sharded
// policy, whose shards share one mirror. With the root pinned, its one
// miss is the pin.
func TestRunLevelSeriesSumToTotals(t *testing.T) {
	levels, _ := fixtureLevels(t, 2000, 20)
	sharded := func(capacity, numPages int) buffer.Policy {
		lru := func(c, n int) buffer.PoolPolicy { return buffer.NewLRU(c, n) }
		return buffer.NewSharded(lru, capacity, numPages, 3)
	}
	for name, policy := range map[string]func(int, int) buffer.Policy{"lru": nil, "sharded": sharded} {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			cfg := Config{BufferSize: 30, PinLevels: 1, Batches: 2, BatchSize: 500, Seed: 7, Metrics: reg, Policy: policy}
			if _, err := Run(levels, UniformPoints{}, cfg); err != nil {
				t.Fatal(err)
			}
			var hits, misses, lvlHits, lvlMisses float64
			rootMisses := -1.0
			for _, s := range reg.Snapshot() {
				switch s.Name {
				case "buffer_hits_total":
					hits += s.Value
				case "buffer_misses_total":
					misses += s.Value
				case "buffer_level_hits_total":
					lvlHits += s.Value
				case "buffer_level_misses_total":
					lvlMisses += s.Value
					for _, l := range s.Labels {
						if l.Key == "level" && l.Value == "0" {
							rootMisses = s.Value
						}
					}
				}
			}
			if hits == 0 || misses == 0 {
				t.Fatalf("policy counted %v hits %v misses: the run exercised nothing", hits, misses)
			}
			if lvlHits != hits || lvlMisses != misses {
				t.Errorf("per-level Σ %v hits %v misses, policy %v and %v", lvlHits, lvlMisses, hits, misses)
			}
			if rootMisses != 1 {
				t.Errorf("pinned root missed %v times, want 1 (the pin)", rootMisses)
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

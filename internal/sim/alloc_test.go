package sim

import "testing"

// TestQueriesAllocateNothing is the allocation gate on one simulated
// query: a run allocates its replica and its batch arrays once, and
// each query — replica.query on the steady-state batches, coldQuery on
// the warm-up, Geometry.touched on both paths of a prepared geometry —
// reuses the replica's page scratch. So a run of ten times the queries
// (warm-up included, which defaults to the batch size here) makes
// exactly as many allocations. The count is the whole run's, not a
// per-query average, which would round a growing scratch down to 0.
func TestQueriesAllocateNothing(t *testing.T) {
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
	// cycle is a source that allocates nothing itself: it replays the
	// pages of a few fixed queries in turn.
	queries := [][]int32{{0, 1, 3}, {0, 2}, {0, 1, 4, 7}, {0}}
	next := 0
	cycle := func(dst []int32) []int32 {
		next = (next + 1) % len(queries)
		return append(dst, queries[next]...)
	}
	for _, tc := range []struct {
		name string
		run  func(cfg Config) (Result, error)
	}{
		{"RunSource", func(cfg Config) (Result, error) { return RunSource(cycle, indexed.levelOf, cfg) }},
		{"RunPrepared, indexed", func(cfg Config) (Result, error) { return RunPrepared(indexed, w, cfg) }},
		{"RunPrepared, scan", func(cfg Config) (Result, error) { return RunPrepared(scan, w, cfg) }},
	} {
		allocs := func(batchSize int) int {
			cfg := Config{BufferSize: 20, Batches: 4, BatchSize: batchSize, Seed: 5}
			return int(testing.AllocsPerRun(1, func() {
				if _, err := tc.run(cfg); err != nil {
					t.Fatal(err)
				}
			}))
		}
		if small, large := allocs(100), allocs(1000); small != large {
			t.Errorf("%s: %d allocations at 100 queries per batch, %d at 1,000", tc.name, small, large)
		}
	}
}

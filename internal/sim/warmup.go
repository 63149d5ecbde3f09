package sim

import (
	"fmt"
	"slices"

	"rtreebuf/internal/geom"
)

// WarmupPoint is one sample of the observed warm-up curve: after Queries
// cold-start queries, DistinctPages distinct node pages have been
// accessed (the empirical D̂(N) counterpart of the model's D(N) curve)
// and Misses buffer misses have occurred.
type WarmupPoint struct {
	Queries       int
	DistinctPages int     // D̂(N): distinct node pages accessed so far
	Misses        uint64  // cumulative buffer misses
	HitRate       float64 // cumulative hit rate over the first Queries queries
}

// WarmupTrace is the measured warm-up behaviour of one (geometry,
// workload, buffer size) combination, for side-by-side comparison with
// the analytic warm-up curve (core.Predictor.WarmupCurve) and fill point
// N* (core.Predictor.WarmupQueries).
type WarmupTrace struct {
	BufferSize  int
	FillQueries int // N̂*: first query at which the buffer was full (0 = never filled)
	Points      []WarmupPoint
}

// TraceWarmup runs queryCounts[len-1] queries against a cold buffer —
// the exact stream Run warms up through, so the trace matches it —
// sampling the distinct-pages count, cumulative misses, and
// hit rate at each count in queryCounts. Counts are sorted and deduped;
// non-positive counts are dropped.
func TraceWarmup(levels [][]geom.Rect, w Workload, cfg Config, queryCounts []int) (WarmupTrace, error) {
	cfg, err := cfg.checked()
	if err != nil {
		return WarmupTrace{}, err
	}
	counts := make([]int, 0, len(queryCounts))
	for _, n := range queryCounts {
		if n > 0 {
			counts = append(counts, n)
		}
	}
	slices.Sort(counts)
	counts = slices.Compact(counts)
	if len(counts) == 0 {
		return WarmupTrace{}, fmt.Errorf("sim: no positive query counts to trace")
	}

	g, err := Prepare(levels, w)
	if err != nil {
		return WarmupTrace{}, err
	}
	r, err := cfg.newReplica(g.source(w, cfg.Seed), g.levelOf)
	if err != nil {
		return WarmupTrace{}, err
	}

	seen := make([]bool, len(g.hitRects))
	distinct := 0
	tr := WarmupTrace{BufferSize: cfg.BufferSize}
	next := 0
	for q := 1; q <= counts[len(counts)-1]; q++ {
		r.coldQuery(q)
		for _, page := range r.pages {
			if !seen[page] {
				seen[page] = true
				distinct++
			}
		}
		if q == counts[next] {
			hits, misses, _ := r.lru.Stats()
			pt := WarmupPoint{Queries: q, DistinctPages: distinct, Misses: misses}
			if total := hits + misses; total > 0 {
				pt.HitRate = float64(hits) / float64(total)
			}
			tr.Points = append(tr.Points, pt)
			next++
		}
	}
	tr.FillQueries = r.fill

	cfg.Metrics.Gauge("sim_observed_fill_query").Set(float64(tr.FillQueries))
	cfg.Metrics.Gauge("sim_observed_distinct_pages").Set(float64(distinct))
	return tr, nil
}

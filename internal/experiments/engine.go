package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rtreebuf/internal/obs"
)

// This file is the parallel, memoized experiment engine. Registry entries
// are pure functions of a Config, so they can run concurrently; the only
// work they share — generating the TIGER-like/CFD-like/synthetic data
// sets and packing trees over them — is deduplicated by a build cache
// keyed by (dataset kind, size, seed) and (dataset, algorithm, node
// capacity). Cached values are immutable once built: datasets are never
// written after generation, and every experiment that mutates a tree
// (AssignPageIDs, storage save) builds a private copy instead of going
// through the cache. Reports are therefore byte-identical to serial runs,
// whatever the worker count.

// buildCache deduplicates dataset generation and tree packing across
// concurrently running experiments. Keys are comparable structs (dataKey,
// treeKey); each entry is built exactly once, outside the map lock, via a
// per-entry sync.Once, so a slow tree build never blocks cache lookups of
// other keys.
type buildCache struct {
	mu      sync.Mutex
	entries map[any]*cacheEntry
	// hits/misses mirror cache effectiveness into the obs registry; nil
	// (free no-ops) when the engine runs without metrics.
	hits, misses *obs.Counter
}

type cacheEntry struct {
	once sync.Once
	val  any
	err  error
}

// dataKey identifies a generated data set.
type dataKey struct {
	kind string // "tiger", "cfd", "spoints", "sregions"
	n    int
	seed uint64
}

// treeKey identifies a packed tree over a cached data set.
type treeKey struct {
	data     dataKey
	alg      string
	capacity int
}

func newBuildCache() *buildCache {
	return &buildCache{entries: map[any]*cacheEntry{}}
}

// get returns the cached value for key, building it at most once. A nil
// cache (experiments run outside the engine) builds fresh every time.
func (c *buildCache) get(key any, build func() (any, error)) (any, error) {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
		c.misses.Inc()
	} else {
		c.hits.Inc()
	}
	c.mu.Unlock()
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// Timing is one experiment's wall-clock cost within a RunAll.
type Timing struct {
	ID      string
	Seconds float64
}

// RunAll executes the given experiments (all of IDs() if ids is empty)
// over a bounded worker pool with a shared build cache, returning reports
// in ids order. workers <= 0 selects runtime.NumCPU. Reports are
// byte-identical to running each id serially: experiments are pure,
// cached artifacts are immutable, and each worker writes only its own
// result slot.
func RunAll(ids []string, cfg Config, workers int) ([]*Report, error) {
	reports, _, err := RunAllTimed(ids, cfg, workers)
	return reports, err
}

// RunAllTimed is RunAll with per-experiment wall-clock timings (in ids
// order), for the benchmark JSON trail.
func RunAllTimed(ids []string, cfg Config, workers int) ([]*Report, []Timing, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		if _, ok := Title(id); !ok {
			return nil, nil, fmt.Errorf("experiments: unknown id %q", id)
		}
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(ids) {
		workers = len(ids)
	}
	cfg.cache = newBuildCache()
	cfg.cache.hits = cfg.Metrics.Counter("experiments_build_cache_hits_total")
	cfg.cache.misses = cfg.Metrics.Counter("experiments_build_cache_misses_total")
	cfg.workers = workers

	reports := make([]*Report, len(ids))
	timings := make([]Timing, len(ids))
	err := runIndexed(workers, len(ids), func(i int) error {
		start := time.Now()
		var err error
		reports[i], err = Run(ids[i], cfg)
		timings[i] = Timing{ID: ids[i], Seconds: time.Since(start).Seconds()}
		cfg.Metrics.Gauge("experiment_wall_seconds", obs.L("id", ids[i])).Set(timings[i].Seconds)
		cfg.Metrics.Counter("experiments_run_total").Inc()
		if err != nil {
			return fmt.Errorf("experiments: %s: %w", ids[i], err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return reports, timings, nil
}

// forEachPoint runs fn(i) for i in [0,n) over the engine's worker budget.
// Sweep points of one experiment (e.g. the per-buffer-size simulations of
// table1) are independent, each writing its own result slot, so the order
// they execute in cannot change the report. Outside the engine (workers
// unset) the loop is plain and serial.
func (c Config) forEachPoint(n int, fn func(i int) error) error {
	if c.workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	return runIndexed(c.workers, n, fn)
}

// runIndexed runs fn(i) for every i in [0,n) on min(workers, n) goroutines
// fed from one work queue, and returns the lowest index's error. Every
// index runs exactly once, whatever fails, and fn must write only what
// index i owns.
func runIndexed(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < max(min(workers, n), 1); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

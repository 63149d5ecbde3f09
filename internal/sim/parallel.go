package sim

import (
	"fmt"
	"runtime"
	"sync"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/stats"
)

// This file parallelizes the simulator by replica splitting: R independent
// simulation replicas, each with its own PCG stream derived from
// (Seed, replica), its own buffer and pin state, and its own warm-up,
// divide the batch budget among themselves. Replicas never share mutable
// state — each writes only its own slot of a pre-sized result slice, with
// a WaitGroup as the sole synchronization — so the run is deterministic
// for a fixed (Seed, Workers) regardless of goroutine scheduling.
//
// Statistically this is still the paper's batch-means method: every batch
// is an average of BatchSize post-warm-up queries against an LRU in
// steady state, and batches from different replicas are independent by
// construction (disjoint streams). The merged interval treats all
// cfg.Batches batches as one sample, exactly as the serial estimator
// treats its consecutive batches; replica 0's stream equals the serial
// stream, so Workers == 1 reproduces Run bit for bit.

// RunParallel is Run with the batch budget spread over replicas. Workers
// (from cfg) chooses the replica count: 0 selects runtime.NumCPU, 1 is
// bit-identical to Run, and the count is capped at cfg.Batches so every
// replica measures at least one batch. FillQueries is replica 0's
// observation; HitRatio pools the accesses of all replicas.
func RunParallel(levels [][]geom.Rect, w Workload, cfg Config) (Result, error) {
	g, err := prepare(levels, w, !cfg.BruteForce)
	if err != nil {
		return Result{}, err
	}
	return RunPreparedParallel(g, w, cfg)
}

// RunPreparedParallel is RunParallel over an already-prepared geometry,
// which is shared read-only by all replicas.
func RunPreparedParallel(g *Geometry, w Workload, cfg Config) (Result, error) {
	cfg, err := cfg.checked()
	if err != nil {
		return Result{}, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > cfg.Batches {
		workers = cfg.Batches
	}
	if workers <= 1 {
		return RunPrepared(g, w, cfg)
	}
	if cfg.Monitor != nil {
		return Result{}, fmt.Errorf("sim: Monitor requires a serial run (Workers <= 1), got %d workers", workers)
	}

	// Each replica writes only its own slot; the WaitGroup is the only
	// synchronization, so no lock is ever held across simulation work.
	// When metrics are enabled each replica also gets a private registry
	// — merged below in replica order, so the collected series are
	// deterministic for a fixed (Seed, Workers) despite the concurrency.
	results := make([]replicaResult, workers)
	errs := make([]error, workers)
	var regs []*obs.Registry
	if cfg.Metrics != nil {
		regs = make([]*obs.Registry, workers)
		for r := range regs {
			regs[r] = obs.NewRegistry()
		}
	}
	var wg sync.WaitGroup
	for r := 0; r < workers; r++ {
		batches := cfg.Batches / workers
		if r < cfg.Batches%workers {
			batches++
		}
		wg.Add(1)
		go func(r, batches int) {
			defer wg.Done()
			rcfg := cfg
			if regs != nil {
				rcfg.Metrics = regs[r]
			}
			results[r], errs[r] = runReplica(g.source(w, cfg, r), g.levelOf, rcfg, r, batches)
		}(r, batches)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	for _, reg := range regs {
		cfg.Metrics.Merge(reg)
	}

	diskBatch := make([]float64, 0, cfg.Batches)
	nodeBatch := make([]float64, 0, cfg.Batches)
	var disk, nodes int
	for _, rr := range results {
		diskBatch = append(diskBatch, rr.diskBatch...)
		nodeBatch = append(nodeBatch, rr.nodeBatch...)
		disk += rr.disk
		nodes += rr.nodes
	}
	hitRatio := 0.0
	if nodes > 0 {
		hitRatio = float64(nodes-disk) / float64(nodes)
	}
	cfg.Metrics.Gauge("sim_hit_ratio").Set(hitRatio)
	return Result{
		DiskPerQuery:  stats.BatchMeans(diskBatch, cfg.Confidence),
		NodesPerQuery: stats.BatchMeans(nodeBatch, cfg.Confidence),
		HitRatio:      hitRatio,
		FillQueries:   results[0].fill,
		Queries:       cfg.Batches * cfg.BatchSize,
	}, nil
}

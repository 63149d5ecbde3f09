package main

import (
	"math"
	"math/rand/v2"
	"time"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/core"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/sim"
	"rtreebuf/internal/storage"
)

// The probes below time one layer's public functions on their own, a few
// hundred milliseconds each. They run in every traced run, whatever the
// workload, so that a per-layer number can be set beside the end-to-end
// metric it should move.

const (
	probeItems  = 60_000 // items the in-memory tree probe inserts
	probeRounds = 200    // passes over the sampled leaf pages
	probePages  = 2048   // pages behind the stand-alone pools
	probeLeaves = 256    // leaf pages of the saved tree the codec probes use
)

// runProbes runs every layer probe. missesPerQuery is the traced
// workload's device reads per query by class, for the model comparison.
func runProbes(res *result, cfg config, sp spec, e *env, leaves [][]byte, sample []rtree.Item, missesPerQuery [numClasses]float64) error {
	probeCodec(res, leaves, cfg.scale)
	if err := probeBuffer(res, leaves, cfg.scale); err != nil {
		return err
	}
	probeRTree(res, sample, cfg.seed)
	return probeModel(res, cfg, sp, e, missesPerQuery)
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink int

// probeCodec times DecodeNode, VerifyPage and EncodeNode over real leaf
// pages of the saved tree.
func probeCodec(res *result, leaves [][]byte, div int) {
	rounds := max(probeRounds/div, 2)
	calls := float64(rounds * len(leaves))
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i, p := range leaves {
			nd, err := storage.DecodeNode(p, i)
			if err == nil {
				sink += len(nd.Rects)
			}
		}
	}
	res.set("storage.codec.decode_ns", float64(time.Since(start))/calls)

	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, p := range leaves {
			if storage.VerifyPage(p) == nil {
				sink++
			}
		}
	}
	res.set("storage.codec.verify_ns", float64(time.Since(start))/calls)

	nodes := make([]rtree.NodeData, len(leaves))
	for i, p := range leaves {
		nodes[i], _ = storage.DecodeNode(p, i) // leafPages kept only pages that decode
	}
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for _, nd := range nodes {
			if b, err := storage.EncodeNode(nd, pageSize); err == nil {
				sink += len(b)
			}
		}
	}
	res.set("storage.codec.encode_ns", float64(time.Since(start))/calls)
}

// probeBuffer times the public Get and Put+FlushDirty of a stand-alone
// pool over a MemoryManager: a resident page for the hit path, a cycle
// longer than the capacity for the miss-and-evict path.
func probeBuffer(res *result, leaves [][]byte, div int) error {
	mem, err := storage.NewMemoryManager(pageSize)
	if err != nil {
		return err
	}
	for p := 0; p < probePages; p++ {
		if err := mem.WritePage(p, leaves[p%len(leaves)]); err != nil {
			return err
		}
	}
	const capacity = probePages / 2
	get := func(pool buffer.PagePool, span, calls int) (float64, error) {
		for p := 0; p < span; p++ { // fault the span in, or through, once
			if _, err := pool.Get(p); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for i := 0; i < calls; i++ {
			b, err := pool.Get(i % span)
			if err != nil {
				return 0, err
			}
			sink += len(b)
		}
		return float64(time.Since(start)) / float64(calls), nil
	}
	for _, m := range []struct {
		name  string
		pool  buffer.PagePool
		span  int
		calls int
	}{
		{"buffer.get_hit_ns", buffer.NewPool(mem, capacity, probePages), capacity / 2, 1_000_000},
		{"buffer.get_miss_ns", buffer.NewPool(mem, capacity, probePages), probePages, 200_000},
		{"buffer.sharded_get_hit_ns", buffer.NewShardedPool(mem, capacity, probePages, 8), capacity / 2, 1_000_000},
		{"buffer.sharded_get_miss_ns", buffer.NewShardedPool(mem, capacity, probePages, 8), probePages, 200_000},
	} {
		ns, err := get(m.pool, m.span, m.calls/div)
		if err != nil {
			return err
		}
		res.set(m.name, ns)
	}

	pool := buffer.NewPool(mem, capacity, probePages)
	pool.SetSink(mem)
	puts := 50_000 / div
	start := time.Now()
	for i := 0; i < puts; i++ {
		if err := pool.Put(i%probePages, leaves[i%len(leaves)]); err != nil {
			return err
		}
		if err := pool.FlushDirty(); err != nil {
			return err
		}
	}
	res.set("buffer.put_flush_ns", float64(time.Since(start))/float64(puts))
	return nil
}

// probeRTree times the in-memory Guttman tree the paper's TAT loader
// uses: insert every sampled item, search, then delete a third.
func probeRTree(res *result, items []rtree.Item, seed uint64) {
	t := rtree.MustNew(rtree.Params{MaxEntries: fanOut})
	start := time.Now()
	for _, it := range items {
		t.Insert(it)
	}
	res.set("rtree.insert_ns", float64(time.Since(start))/float64(len(items)))

	rng := rand.New(rand.NewPCG(seed, streamPhaseA))
	searches := len(items) / 3
	start = time.Now()
	for i := 0; i < searches; i++ {
		sink += len(t.SearchWindow(uniformWindow(rng, 0.01)))
	}
	res.set("rtree.search_ns", float64(time.Since(start))/float64(searches))

	start = time.Now()
	for i := 0; i < len(items); i += 3 {
		if t.Delete(items[i]) {
			sink++
		}
	}
	res.set("rtree.delete_ns", float64(time.Since(start))/float64((len(items)+2)/3))
}

// sweepSizes are the 200 buffer sizes of one model evaluation.
func sweepSizes(pages int) []int {
	sizes := make([]int, 200)
	for i := range sizes {
		sizes[i] = max(1, (i+1)*pages/400)
	}
	return sizes
}

// modelEval is one evaluation of the paper's model: access probabilities
// for a 0.01 x 0.01 uniform query, then the whole buffer-size sweep.
func modelEval(levels [][]geom.Rect, pages int) (pred *core.Predictor, build, sweep time.Duration, err error) {
	qm, err := core.NewUniformQueries(0.01, 0.01)
	if err != nil {
		return nil, 0, 0, err
	}
	start := time.Now()
	pred = core.NewPredictor(levels, qm)
	build = time.Since(start)
	start = time.Now()
	sink += len(pred.DiskAccessesSweep(sweepSizes(pages)))
	return pred, build, time.Since(start), nil
}

// simBatch is one simulator run of 4 batches over the node MBRs with the
// paper's uniform region queries and an LRU buffer of the given size.
func simBatch(levels [][]geom.Rect, bufferPages, batchSize int, seed uint64) (r sim.Result, prepare, run time.Duration, err error) {
	w, err := sim.NewUniformRegions(0.01, 0.01)
	if err != nil {
		return r, 0, 0, err
	}
	start := time.Now()
	g, err := sim.Prepare(levels, w)
	if err != nil {
		return r, 0, 0, err
	}
	prepare = time.Since(start)
	start = time.Now()
	r, err = sim.RunPrepared(g, w, sim.Config{BufferSize: bufferPages, Batches: 4, BatchSize: batchSize, Warmup: batchSize, Seed: seed})
	return r, prepare, time.Since(start), err
}

// errPct is |model - measured| as a percentage of measured.
func errPct(model, measured float64) float64 {
	return 100 * ratio(math.Abs(model-measured), measured)
}

// probeModel times the model and the simulator on the packed tree's
// levels and records how far the model is from the simulator and, where
// the workload is the one the model describes (one LRU pool smaller than
// the tree, read only), from the running system, class by class.
func probeModel(res *result, cfg config, sp spec, e *env, missesPerQuery [numClasses]float64) error {
	pred, build, sweep, err := modelEval(e.levels, e.pages)
	if err != nil {
		return err
	}
	res.set("core.predictor_build_ms", ms(build))
	res.set("core.sweep_ms", ms(sweep))

	simBuffer := max(e.pages/50, 2)
	r, prepare, run, err := simBatch(e.levels, simBuffer, 50_000/cfg.scale+1000, cfg.seed)
	if err != nil {
		return err
	}
	res.set("sim.prepare_ms", ms(prepare))
	res.set("sim.query_ns", ratio(float64(run), float64(r.Queries+r.Queries/4)))
	res.set("core.model_vs_sim_err_pct", errPct(pred.DiskAccesses(simBuffer), r.DiskPerQuery.Mean))

	if sp.wal || sp.shards > 1 || sp.policy != "" || sp.buffer >= e.pages {
		return nil
	}
	for class, m := range map[opClass]struct {
		name string
		side float64
	}{opPoint: {"point", 0}, opWindow: {"window", sp.window}} {
		qm, err := core.NewUniformQueries(m.side, m.side)
		if err != nil {
			return err
		}
		model := core.NewPredictor(e.levels, qm).DiskAccesses(sp.buffer)
		res.set("core.model_vs_system_err_pct."+m.name, errPct(model, missesPerQuery[class]))
	}
	return nil
}

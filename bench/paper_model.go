package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/stats"
	"rtreebuf/internal/storage"
)

// Sizes of paper_model at full scale. A round of phase A is fixed work,
// because the cost of an insert depends on how large the tree has grown;
// rounds repeat for two thirds of --seconds and phases B and C for the
// rest, at least this often.
const (
	phaseAInserts  = 300_000
	phaseASearches = 100_000
	phaseADeletes  = 60_000
	minRounds      = 2
	minModelReps   = 3
	simBatchSize   = 250_000 // queries per batch, 4 batches per run
	maxModelSimErr = 5.0     // percent
)

// memQuerier adapts the in-memory tree to the oracle's read surface.
type memQuerier struct{ t *rtree.Tree }

func (q memQuerier) point(p geom.Point) ([]rtree.Item, error) { return q.t.SearchPoint(p), nil }
func (q memQuerier) window(r geom.Rect) ([]rtree.Item, error) { return q.t.SearchWindow(r), nil }
func (q memQuerier) nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	return q.t.Nearest(p, k), nil
}

// phaseA is one round on the tuple-at-a-time tree the paper evaluates:
// insert, search with 0.01 windows, delete uniformly chosen live items.
// Every operation is timed on its own; live is what the tree must hold
// afterwards. Rounds of one run do identical work on a fresh tree.
type phaseA struct {
	tree *rtree.Tree
	live []rtree.Item
	*samples
	start   time.Time
	elapsed time.Duration
	alloc   uint64
}

func runPhaseA(items []rtree.Item, inserts, searches, deletes int, seed uint64, tr *tracer) *phaseA {
	a := &phaseA{
		tree:    rtree.MustNew(rtree.Params{MaxEntries: fanOut}),
		live:    make([]rtree.Item, 0, inserts),
		samples: newSamples(inserts + searches + deletes),
	}
	rng := rand.New(rand.NewPCG(seed, streamPhaseA))
	load := strided(items, inserts)
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	a.start = time.Now()
	for _, it := range load {
		sp, t0 := tr.begin(uint8(opInsert)), time.Since(a.start)
		a.tree.Insert(it)
		a.record(opInsert, t0, tr, sp)
		a.live = append(a.live, it)
	}
	for i := 0; i < searches; i++ {
		q := uniformWindow(rng, 0.01)
		sp, t0 := tr.begin(uint8(opWindow)), time.Since(a.start)
		n := len(a.tree.SearchWindow(q))
		a.record(opWindow, t0, tr, sp)
		sink += n
	}
	for i := 0; i < deletes; i++ {
		at := rng.IntN(len(a.live))
		sp, t0 := tr.begin(uint8(opDelete)), time.Since(a.start)
		a.tree.Delete(a.live[at]) // a miss shows in the Len check of verify
		a.record(opDelete, t0, tr, sp)
		a.live[at] = a.live[len(a.live)-1]
		a.live = a.live[:len(a.live)-1]
	}
	runtime.ReadMemStats(&m1)
	a.alloc = m1.TotalAlloc - m0.TotalAlloc
	return a
}

// strided returns n items taken at equal steps through items, so that
// they cover the data space like the full set does, in the generator's
// order as a tuple-at-a-time load would see them.
func strided(items []rtree.Item, n int) []rtree.Item {
	n = min(n, len(items))
	out := make([]rtree.Item, n)
	for i := range out {
		out[i] = items[i*(len(items)/n)]
	}
	return out
}

// record closes the timing of one operation that began at t0.
func (a *phaseA) record(class opClass, t0 time.Duration, tr *tracer, sp int32) {
	a.elapsed = time.Since(a.start)
	tr.end(sp)
	a.add(class, t0, a.elapsed)
}

// verify checks the tree phase A left behind: structure, size, and 0.01
// window queries against a brute-force pass over the live items.
func (a *phaseA) verify(cfg config, sp spec, res *result) {
	res.attempted += 2
	if err := a.tree.CheckInvariants(); err != nil {
		res.failed++
		res.notef("FAIL: tree invariants: %v", err)
	}
	if a.tree.Len() != len(a.live) {
		res.failed++
		res.notef("FAIL: tree holds %d items, want %d", a.tree.Len(), len(a.live))
	}
	orc := newOracle(a.live, cfg.seed, sp.checks, sp.window, [numClasses]bool{opWindow: true})
	if cfg.corruptOracle {
		orc.corrupt()
	}
	at, f := orc.replay(memQuerier{a.tree})
	res.attempted += at
	res.failed += f
}

func runPaperModel(cfg config, sp spec) (*result, error) {
	sp = sp.scaled(cfg.scale)
	if cfg.trace {
		return tracePaperModel(cfg, sp)
	}
	res := newResult()
	e, setup, err := setUpMedian(cfg, sp, nil, setupReps)
	if err != nil {
		return nil, err
	}
	simBuffer := max(sp.buffer, 2)
	res.notef("%d items packed into %d nodes; no DiskManager is created", sp.items, e.pages)

	start := time.Now()
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var a *phaseA
	var parts []part
	for r := 0; r < minRounds || time.Since(start) < budget*2/3; r++ {
		a = runPhaseA(e.items, phaseAInserts/cfg.scale, phaseASearches/cfg.scale, phaseADeletes/cfg.scale, cfg.seed, nil)
		parts = append(parts, newPart([]*samples{a.samples}, a.elapsed.Seconds(), func(int64) bool { return true }))
		res.attempted += a.len()
	}
	e.dropItems()

	// Phases B and C alternate until the budget is spent.
	var evals, simRates []float64
	var modelD, simD float64
	for i := 0; i < minModelReps || time.Since(start) < budget; i++ {
		pred, build, sweep, err := modelEval(e.levels, e.pages)
		if err != nil {
			return nil, err
		}
		evals = append(evals, ms(build+sweep))
		r, _, run, err := simBatch(e.levels, simBuffer, simBatchSize/cfg.scale, cfg.seed)
		if err != nil {
			return nil, err
		}
		simRates = append(simRates, float64(r.Queries+r.Queries/4)/run.Seconds())
		if i == 0 {
			modelD, simD = pred.DiskAccesses(simBuffer), r.DiskPerQuery.Mean
		}
	}

	res.set("setup_s", setup.total.Seconds())
	timings(res, parts)
	res.notef("phase A ran %d rounds of %d operations; the timings are over rounds, not time slices", len(parts), a.len())
	// The simulator's misses per query: the paper's metric where there
	// is no device to count reads on.
	res.setN("disk_reads_per_query", simD, simBatchSize/cfg.scale*4)
	res.set("alloc_kb_per_op", float64(a.alloc)/1024/float64(a.len()))

	last := []*samples{a.samples}
	res.report("insert_p50_us", "us", us(percentile(sorted(last, only(opInsert)), 0.5)), phaseAInserts/cfg.scale)
	res.report("delete_p50_us", "us", us(percentile(sorted(last, only(opDelete)), 0.5)), phaseADeletes/cfg.scale)
	res.report("model_eval_ms", "ms", stats.Median(evals), len(evals))
	res.report("sim_queries_per_s", "1/s", stats.Median(simRates), len(simRates))
	res.report("model_vs_sim_err_pct", "%", errPct(modelD, simD), 0)

	a.verify(cfg, sp, res)
	res.attempted++
	if errPct(modelD, simD) > maxModelSimErr {
		res.failed++
		res.notef("FAIL: model %.4f vs simulator %.4f disk accesses per query: more than %g%% apart", modelD, simD, maxModelSimErr)
	}
	return res, nil
}

// tracePaperModel is the traced run: phase A at a quarter of its size,
// once bare and once recording a span per operation, one model
// evaluation and one simulator run as spans of their own, and the layer
// probes. The storage probes run over a MemoryManager copy of the packed
// tree made for them alone; the workload itself still touches none.
func tracePaperModel(cfg config, sp spec) (*result, error) {
	res := newResult()
	e, setup, err := setUp(cfg, sp, nil)
	if err != nil {
		return nil, err
	}
	res.set("pack.load_ns_per_item", ratio(float64(setup.pack), float64(sp.items)))
	res.set("datagen.ns_per_item", ratio(float64(setup.datagen), float64(sp.items)))

	div := 4 * cfg.scale
	ref := runPhaseA(e.items, phaseAInserts/div, phaseASearches/div, phaseADeletes/div, cfg.seed, nil)
	tr := newTracer(traceSpans)
	tr.enabled = true
	a := runPhaseA(e.items, phaseAInserts/div, phaseASearches/div, phaseADeletes/div, cfg.seed, tr)
	res.attempted = ref.len() + a.len()
	res.set("trace.overhead_pct", 100*(ratio(a.elapsed.Seconds(), ref.elapsed.Seconds())-1))

	simBuffer := max(sp.buffer, 2)
	i := tr.begin(spanCoreSweep)
	if _, _, _, err := modelEval(e.levels, e.pages); err != nil {
		return nil, err
	}
	tr.end(i)
	i = tr.begin(spanSimRun)
	if _, _, _, err := simBatch(e.levels, simBuffer, simBatchSize/div, cfg.seed); err != nil {
		return nil, err
	}
	tr.end(i)
	tr.enabled = false
	if err := writeTrace(res, cfg, sp.name, tr); err != nil {
		return nil, err
	}

	leaves, err := packedLeafPages(e.items)
	if err != nil {
		return nil, err
	}
	sample := strided(e.items, probeItems/cfg.scale)
	if err := runProbes(res, cfg, sp, e, leaves, sample, [numClasses]float64{}); err != nil {
		return nil, err
	}
	a.verify(cfg, sp, res)
	return res, nil
}

// packedLeafPages packs items, saves the tree to a MemoryManager and
// returns some of its leaf pages, for the probes of a workload that has
// no page file of its own.
func packedLeafPages(items []rtree.Item) ([][]byte, error) {
	tree, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: fanOut}, items)
	if err != nil {
		return nil, err
	}
	mem, err := storage.NewMemoryManager(pageSize)
	if err != nil {
		return nil, err
	}
	if err := storage.SaveTree(mem, tree); err != nil {
		return nil, fmt.Errorf("saving the packed tree for the probes: %w", err)
	}
	return leafPages(mem, probeLeaves)
}

package main

import (
	"errors"
	"math/rand/v2"
	"time"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/storage"
)

type opClass uint8

const (
	opPoint opClass = iota
	opWindow
	opKNN
	opInsert
	opDelete
	numClasses
)

func (c opClass) isQuery() bool { return c <= opKNN }

// spec is one workload at full scale. Every size is sized for a 2-core
// box and a 10 s measured phase; scaled divides them all by one factor.
type spec struct {
	name    string
	storage bool // false: paper_model, which touches no DiskManager

	items   int
	buffer  int    // pool capacity in pages
	policy  string // "" is LRU
	shards  int
	clients int
	wal     bool

	mix        [numClasses]float64 // share of each op class
	window     float64             // side of a window query
	insertSide float64             // side of an inserted rectangle

	warmup int // untimed operations before the measured phase
	// prefix is the fixed part of the measured phase. Counts (device
	// reads, bytes written, bytes allocated) are taken over it, the reads
	// over the warm-up too, so with one client they repeat exactly for a
	// seed however fast the machine is; timings cover the prefix and
	// whatever else fits in --seconds.
	prefix int
	checks int // oracle queries per class
}

type workload struct {
	name string
	why  string
	spec spec
	run  func(cfg config, sp spec) (*result, error)
}

const fullItems = 1_000_000 // 10,101 pages of 4 KiB at fan-out 100: 41 MB, 3 levels

var readMix = [numClasses]float64{opPoint: 0.6, opWindow: 0.3, opKNN: 0.1}

var workloads = []workload{
	{
		name: "read_hot",
		why:  "cache-fit: buffer larger than the tree, so page copy-out, per-visit CRC, full node decode and the pool hit path do all the work and the device does none",
		spec: spec{storage: true, items: fullItems, buffer: 12000, shards: 1, clients: 1,
			mix: readMix, window: 0.01, warmup: 50_000, prefix: 200_000, checks: 256},
		run: runStorage,
	},
	{
		name: "read_cold",
		why:  "larger than cache: buffer is 2% of the tree and most visits miss, so the pool fault and evict path, ResilientManager and FileManager.ReadPage carry the difference to read_hot; the paper's regime",
		spec: spec{storage: true, items: fullItems, buffer: 200, shards: 1, clients: 1,
			mix: readMix, window: 0.01, warmup: 20_000, prefix: 150_000, checks: 256},
		run: runStorage,
	},
	{
		name: "read_scan_mt",
		why:  "the same read layers used differently: 2 clients scanning 0.03 windows through the sharded Clock-Pro pool, so leaf decode, result building and lock striping under a non-LRU policy show only here",
		spec: spec{storage: true, items: fullItems, buffer: 1000, policy: "clockpro", shards: 8, clients: 2,
			mix: [numClasses]float64{opWindow: 1}, window: 0.03, warmup: 5_000, prefix: 30_000, checks: 256},
		run: runStorage,
	},
	{
		name: "write_wal",
		why:  "writes beside reads: WAL-committed inserts and deletes with window queries between them, the only workload through storage/update.go, WAL.AppendBatch, Put/FlushDirty and checkpoints",
		spec: spec{storage: true, items: fullItems, buffer: 1000, shards: 1, clients: 1, wal: true,
			mix: [numClasses]float64{opInsert: 0.4, opDelete: 0.2, opWindow: 0.4}, window: 0.01, insertSide: 0.001,
			warmup: 2_000, prefix: 60_000, checks: 256},
		run: runStorage,
	},
	{
		name: "paper_model",
		why:  "no storage at all: the in-memory Guttman tree, the analytic model and the validating simulator, which every storage-layer optimisation must leave flat",
		spec: spec{items: fullItems, window: 0.01, buffer: 200, checks: 256},
		run:  runPaperModel,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			w.spec.name = w.name
			return w, true
		}
	}
	return workload{}, false
}

// scaled divides every size by div, keeping buffers and counts usable.
func (sp spec) scaled(div int) spec {
	if div <= 1 {
		return sp
	}
	sp.items /= div
	sp.buffer = max(sp.buffer/div, 8)
	sp.warmup /= div
	sp.prefix = max(sp.prefix/div, 40)
	sp.checks = max(sp.checks/4, 8)
	return sp
}

// op is one generated operation.
type op struct {
	class opClass
	pt    geom.Point
	rect  geom.Rect
	item  rtree.Item
	live  int // index into opGen.live of the item a delete removes
}

// opGen turns one PCG stream into operations. It owns the set of items
// it has inserted and not yet deleted, which is also what the final
// check of a write workload compares the tree against.
type opGen struct {
	rng    *rand.Rand
	sp     spec
	live   []rtree.Item
	nextID int64
}

func newOpGen(sp spec, seed uint64, stream uint64) *opGen {
	return &opGen{
		rng:    rand.New(rand.NewPCG(seed, stream)),
		sp:     sp,
		live:   make([]rtree.Item, 0, 1<<16),
		nextID: int64(sp.items) + 1, // sp.items itself is the priming insert
	}
}

func (g *opGen) next() op {
	u := g.rng.Float64()
	class := opWindow // every mix has windows; also absorbs rounding past the last share
	for c, share := range g.sp.mix {
		if u < share {
			class = opClass(c)
			break
		}
		u -= share
	}
	if class == opDelete && len(g.live) == 0 {
		class = opInsert
	}
	switch class {
	case opPoint, opKNN:
		return op{class: class, pt: uniformPoint(g.rng)}
	case opWindow:
		return op{class: class, rect: uniformWindow(g.rng, g.sp.window)}
	case opInsert:
		g.nextID++
		return op{class: class, item: rtree.Item{Rect: uniformWindow(g.rng, g.sp.insertSide), ID: g.nextID}}
	default:
		i := g.rng.IntN(len(g.live))
		return op{class: class, item: g.live[i], live: i}
	}
}

// done records a successful update in the live set.
func (g *opGen) done(o op) {
	switch o.class {
	case opInsert:
		g.live = append(g.live, o.item)
	case opDelete:
		last := len(g.live) - 1
		g.live[o.live] = g.live[last]
		g.live = g.live[:last]
	}
}

var errNotFound = errors.New("delete of a live item found nothing")

// pagedQuerier adapts *storage.PagedTree to the oracle's read surface.
type pagedQuerier struct{ pt *storage.PagedTree }

func (q pagedQuerier) point(p geom.Point) ([]rtree.Item, error) { return q.pt.SearchPoint(p) }
func (q pagedQuerier) window(r geom.Rect) ([]rtree.Item, error) { return q.pt.SearchWindow(r) }
func (q pagedQuerier) nearest(p geom.Point, k int) ([]rtree.Neighbor, error) {
	return q.pt.Nearest(p, k)
}

// client is one closed-loop caller: it issues its next operation only
// when the previous one has returned.
type client struct {
	pt  *storage.PagedTree
	gen *opGen
	tr  *tracer // nil in the untraced run

	// One entry per measured operation, preallocated: nothing is
	// allocated, and no counter is read, between the two clock reads.
	*samples
	epoch time.Time // start of the current phase, shared by all clients

	results int // items returned, so the queries' results are used
	failed  int

	// Device reads and pool accesses attributed to each op class. Only
	// kept with one client, where the deltas around an operation are
	// that operation's.
	file       storage.DiskManager
	classReads [numClasses]uint64
	classOps   [numClasses]uint64 // successful operations, warm-up included
	classNodes [numClasses]uint64 // pool accesses while the tracer is on
}

func newClient(pt *storage.PagedTree, gen *opGen, capacity int) *client {
	return &client{pt: pt, gen: gen, samples: newSamples(capacity), epoch: time.Now()}
}

func (c *client) exec(o op) (int, error) {
	switch o.class {
	case opPoint:
		r, err := c.pt.SearchPoint(o.pt)
		return len(r), err
	case opWindow:
		r, err := c.pt.SearchWindow(o.rect)
		return len(r), err
	case opKNN:
		r, err := c.pt.Nearest(o.pt, knnK)
		return len(r), err
	case opInsert:
		return 0, c.pt.Insert(o.item)
	default:
		found, err := c.pt.Delete(o.item)
		if err == nil && !found {
			err = errNotFound
		}
		return 0, err
	}
}

// run issues operations until at least minOps are done and budget has
// passed, or the samples are full. It returns the time it took.
func (c *client) run(minOps int, budget time.Duration) time.Duration {
	begin := time.Since(c.epoch)
	elapsed := time.Duration(0)
	for done := 0; !c.full() && (done < minOps || elapsed < budget); done++ {
		tracing := c.tr != nil && c.tr.enabled
		if tracing && c.tr.full() {
			break // a traced phase ends when the span slice is full
		}
		o := c.gen.next()
		var reads, nodes uint64
		if c.file != nil {
			reads = c.file.Stats().Reads
		}
		if tracing {
			h, m, _ := c.pt.Pool().Stats()
			nodes = h + m
		}
		sp := c.tr.begin(uint8(o.class))
		t0 := time.Since(c.epoch)
		n, err := c.exec(o)
		t1 := time.Since(c.epoch)
		c.tr.end(sp)
		c.add(o.class, t0, t1)
		elapsed = t1 - begin
		if err != nil {
			c.failed++
			continue
		}
		c.gen.done(o)
		c.classOps[o.class]++
		c.results += n
		if c.file != nil {
			c.classReads[o.class] += c.file.Stats().Reads - reads
		}
		if tracing {
			h, m, _ := c.pt.Pool().Stats()
			c.classNodes[o.class] += h + m - nodes
		}
	}
	return elapsed
}

func (c *client) queries() uint64 {
	return c.classOps[opPoint] + c.classOps[opWindow] + c.classOps[opKNN]
}

func (c *client) queryReads() uint64 {
	return c.classReads[opPoint] + c.classReads[opWindow] + c.classReads[opKNN]
}

// restart forgets the recorded samples and starts a new phase at epoch,
// keeping the counters: the cold start is part of what a query stream
// costs.
func (c *client) restart(epoch time.Time) {
	c.reset()
	c.epoch = epoch
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rtreebuf/internal/rtree"
	"rtreebuf/internal/storage"
)

// setupReps is how often the untraced run sets up; setup_s is the median.
const setupReps = 5

// counts is a snapshot of every exact counter the harness reads between
// phases, never between the clock reads of an operation.
type counts struct {
	queries, queryReads, results  uint64
	fileReads                     uint64
	hits, misses, evictions       uint64
	commits, fsyncs, bytesWritten float64
	checkpoints, writeBacks       float64
}

func takeCounts(e *env, clients []*client) counts {
	var c counts
	for _, cl := range clients {
		c.queries += cl.queries()
		c.queryReads += cl.queryReads()
		c.results += uint64(cl.results)
	}
	c.fileReads = e.file.Stats().Reads
	c.hits, c.misses, c.evictions = e.st.pt.Pool().Stats()
	c.commits = e.st.counter("storage_wal_commits_total")
	c.fsyncs = e.st.counter("storage_fsyncs_total")
	c.bytesWritten = e.st.counter("storage_write_bytes_total")
	c.checkpoints = e.st.counter("storage_wal_checkpoints_total")
	c.writeBacks = e.st.counter("buffer_write_backs_total", policyLabel)
	return c
}

// readsPerQuery is the paper's metric between two snapshots: page-file
// reads per query. On a read-only workload every device read serves a
// query, the warm-up scan of a cache-fit buffer included. Beside updates
// only the reads made while a query ran count, which one client lets the
// harness attribute operation by operation.
func readsPerQuery(sp spec, from, to counts) float64 {
	if sp.wal {
		return ratio(float64(to.queryReads-from.queryReads), float64(to.queries-from.queries))
	}
	return ratio(float64(to.fileReads-from.fileReads), float64(to.queries-from.queries))
}

// drive runs every client through one phase and returns its wall time.
func drive(clients []*client, minOps int, budget time.Duration) time.Duration {
	if len(clients) == 1 {
		return clients[0].run(minOps, budget)
	}
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(minOps/len(clients), budget)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

func newClients(cfg config, sp spec, e *env, tr *tracer) []*client {
	// Room for 200,000 operations a second, several times what the
	// fastest workload does; a phase that fills it ends early.
	capacity := (sp.warmup + sp.prefix + int(cfg.seconds*200_000)) / sp.clients
	clients := make([]*client, sp.clients)
	for i := range clients {
		clients[i] = newClient(e.st.pt, newOpGen(sp, cfg.seed, streamClient+uint64(i)), capacity)
		clients[i].tr = tr
		if sp.clients == 1 {
			clients[i].file = e.file
		}
	}
	return clients
}

// restartAll starts a new phase for every client at one shared epoch.
func restartAll(clients []*client) time.Time {
	epoch := time.Now()
	for _, c := range clients {
		c.restart(epoch)
	}
	return epoch
}

func sampleSets(clients []*client) []*samples {
	sets := make([]*samples, len(clients))
	for i, c := range clients {
		sets[i] = c.samples
	}
	return sets
}

func runStorage(cfg config, sp spec) (*result, error) {
	sp = sp.scaled(cfg.scale)
	if cfg.trace {
		return traceStorage(cfg, sp)
	}
	if sp.wal {
		// Two fsyncs per commit on the sandbox's shared disk cost more
		// than the program does and vary by 30% from run to run, which no
		// bound could absorb. The gated run therefore takes the device
		// out and measures the program; the traced run, whose numbers
		// carry no bound, keeps real files and reports the device.
		cfg.memory = true
	}
	res := newResult()
	e, setup, err := setUpMedian(cfg, sp, nil, setupReps)
	if err != nil {
		return nil, err
	}
	defer e.close()
	res.notef("%d items, %d pages, buffer %d pages (%s x%d), %d client(s), files in %s",
		sp.items, e.pages, sp.buffer, policyName(sp), sp.shards, sp.clients, where(cfg))
	orc := buildOracle(cfg, sp, e)
	e.dropItems()

	clients := newClients(cfg, sp, e, nil)
	base := takeCounts(e, clients)
	if err := warmUp(sp, e, clients); err != nil {
		return nil, err
	}
	warm := takeCounts(e, clients)

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	epoch := restartAll(clients)
	drive(clients, sp.prefix, 0)
	runtime.ReadMemStats(&m1)
	fixed := takeCounts(e, clients)
	if rest := time.Duration(cfg.seconds*float64(time.Second)) - time.Since(epoch); rest > 0 {
		drive(clients, 0, rest)
	}
	elapsed := time.Since(epoch)
	end := takeCounts(e, clients)

	sets := sampleSets(clients)
	ops := 0
	for _, c := range clients {
		ops += c.len()
		res.failed += c.failed
	}
	res.attempted = ops
	res.set("setup_s", setup.total.Seconds())
	timings(res, timeSlices(sets, elapsed))
	res.setN("disk_reads_per_query", readsPerQuery(sp, base, fixed), int(fixed.queries-base.queries))
	res.setN("alloc_kb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1024/float64(sp.prefix), sp.prefix)

	for _, m := range []struct {
		class opClass
		name  string
	}{{opPoint, "point_p50_us"}, {opKNN, "knn_p50_us"}, {opInsert, "insert_p50_us"}, {opDelete, "delete_p50_us"}} {
		if l := sorted(sets, only(m.class)); len(l) > 0 {
			res.report(m.name, "us", us(percentile(l, 0.5)), len(l))
		}
	}
	if sp.wal {
		upd := sorted(sets, func(c opClass) bool { return !c.isQuery() })
		res.report("update_p95_us", "us", us(percentile(upd, supported(len(upd), 0.95))), len(upd))
		commits := fixed.commits - warm.commits
		res.report("bytes_written_per_commit", "B", ratio(fixed.bytesWritten-warm.bytesWritten, commits), int(commits))
		res.report("checkpoints", "count", end.checkpoints-warm.checkpoints, int(end.commits-warm.commits))
	}
	steady := readsPerQuery(sp, warm, fixed)
	res.report("disk_reads_per_query_steady", "count", steady, int(fixed.queries-warm.queries))
	res.report("buffer_hit_ratio", "%", 100*ratio(float64(end.hits-warm.hits), float64(end.hits-warm.hits+end.misses-warm.misses)), 0)

	if sp.buffer >= e.pages {
		res.attempted++
		if steady != 0 {
			res.failed++
			res.notef("FAIL: the buffer holds the whole tree, yet %g device reads per query after warm-up", steady)
		}
	}
	a, f := verify(cfg, sp, e, orc, clients, res)
	res.attempted += a
	res.failed += f
	return res, nil
}

// warmUp runs the untimed operations. A buffer that holds the whole tree
// is loaded completely first: uniform queries alone leave a few leaves of
// the densest districts untouched for a long time, and their first reads
// would trickle into the measured phase.
func warmUp(sp spec, e *env, clients []*client) error {
	if sp.buffer >= e.pages {
		if err := e.st.pt.ScanLeaves(func(rtree.Item) error { return nil }); err != nil {
			return fmt.Errorf("warm-up scan: %w", err)
		}
	}
	drive(clients, sp.warmup, 0)
	return nil
}

func policyName(sp spec) string {
	if sp.policy == "" {
		return "lru"
	}
	return sp.policy
}

func where(cfg config) string {
	if cfg.memory {
		return "memory"
	}
	return cfg.dir
}

// buildOracle answers the check queries of the classes the workload
// issues. A write workload changes the tree under the answers, so it is
// checked by its final contents instead (verifyWAL).
func buildOracle(cfg config, sp spec, e *env) *oracle {
	if sp.wal {
		return nil
	}
	var classes [numClasses]bool
	for c, share := range sp.mix {
		classes[c] = share > 0
	}
	o := newOracle(e.items, cfg.seed, sp.checks, sp.window, classes)
	if cfg.corruptOracle {
		o.corrupt()
	}
	return o
}

// verify checks the program's outputs once the timing is over.
func verify(cfg config, sp spec, e *env, orc *oracle, clients []*client, res *result) (attempted, failed int) {
	if !sp.wal {
		return orc.replay(pagedQuerier{e.st.pt})
	}
	attempted, failed, err := verifyWAL(sp, e, clients[0].gen.live, cfg.corruptOracle)
	if err != nil {
		res.notef("FAIL: %v", err)
	}
	return attempted, failed
}

// verifyWAL closes the devices, reopens them through OpenPagedTreeWAL,
// which is the recovery path, and requires the tree to hold exactly the
// packed items, the priming insert and the generator's live set, the
// catalog to agree, and a scrub of the page file to come back clean.
func verifyWAL(sp spec, e *env, live []rtree.Item, corrupt bool) (attempted, failed int, err error) {
	if e.file, err = reopenDevice(e.file, e.filePath); err != nil {
		return 1, 1, fmt.Errorf("reopening the page file: %w", err)
	}
	if e.wal, err = reopenDevice(e.wal, e.walPath); err != nil {
		return 1, 1, fmt.Errorf("reopening the log: %w", err)
	}
	pt, _, err := storage.OpenPagedTreeWAL(storage.NewResilientManager(e.file), e.wal, sp.buffer)
	if err != nil {
		return 1, 1, fmt.Errorf("recovery: %w", err)
	}
	want := make(map[int64]bool, len(live)+1)
	want[e.primed.ID] = true
	for _, it := range live {
		want[it.ID] = true
	}
	if corrupt {
		want[-1] = true
	}
	missing, unexpected := missingAndUnexpected(pt, sp.items, want, noID)
	attempted = sp.items + len(want) + 2
	failed = missing + unexpected
	if got := pt.Meta().Items; got != sp.items+len(want) {
		failed++
		err = fmt.Errorf("catalog says %d items, want %d", got, sp.items+len(want))
	}
	if rep := storage.Scrub(e.file); !rep.Clean() {
		failed++
		err = fmt.Errorf("scrub after recovery: %s", rep)
	}
	if missing+unexpected > 0 {
		err = fmt.Errorf("after recovery %d items are missing and %d should not be there", missing, unexpected)
	}
	return attempted, failed, err
}

// noID is an item ID no item has.
const noID = int64(-1) << 62

// missingAndUnexpected scans every leaf of pt and compares the IDs found
// with the packed items 0..base-1 plus the IDs in want. The item with ID
// either may be there or not.
func missingAndUnexpected(pt *storage.PagedTree, base int, want map[int64]bool, either int64) (missing, unexpected int) {
	seenBase := make([]bool, base)
	seen := make(map[int64]bool, len(want))
	err := pt.ScanLeaves(func(it rtree.Item) error {
		switch {
		case it.ID >= 0 && it.ID < int64(base) && !seenBase[it.ID]:
			seenBase[it.ID] = true
		case want[it.ID] && !seen[it.ID]:
			seen[it.ID] = true
		case it.ID == either:
		default:
			unexpected++ // a duplicate, a stranger, or a deleted item that came back
		}
		return nil
	})
	if err != nil {
		return base + len(want), 0
	}
	for _, ok := range seenBase {
		if !ok {
			missing++
		}
	}
	return missing + len(want) - len(seen), unexpected
}

package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/storage"
)

// traceSpans is the capacity of the span slice (32 bytes each). A traced
// phase ends when it is full, so nothing is silently dropped.
const traceSpans = 1 << 20

// traceStorage is the separate traced run of a storage workload. It has
// one client whatever the workload says, so that each device span has
// exactly one possible parent, and runs a quarter of the time. No
// end-to-end number comes from here.
func traceStorage(cfg config, sp spec) (*result, error) {
	res := newResult()
	if sp.clients > 1 {
		res.notef("traced with 1 client instead of %d: a device span then has one possible parent", sp.clients)
		sp.clients = 1
	}
	tr := newTracer(traceSpans)
	e, setup, err := setUp(cfg, sp, tr)
	if err != nil {
		return nil, err
	}
	defer e.close()
	orc := buildOracle(cfg, sp, e)
	sample := strided(e.items, probeItems/cfg.scale)
	e.dropItems()

	clients := newClients(cfg, sp, e, tr)
	c := clients[0]
	if err := warmUp(sp, e, clients); err != nil {
		return nil, err
	}

	// Reference phases, wrappers in place and tracer off, on both sides
	// of the traced phase, so that a drift of the machine falls on both;
	// what recording costs is the difference.
	// Without a time budget (the smoke test) each phase is minOps long.
	quarter := time.Duration(cfg.seconds * float64(time.Second) / 4)
	minOps := max(sp.prefix/64, 40)
	refTime := drive(clients, minOps/2, quarter/2)
	refOps := len(c.lat)
	c.reset()

	before, diskBefore, walBefore := takeCounts(e, clients), *e.st.disk, timedDM{}
	if e.st.walDev != nil {
		walBefore = *e.st.walDev
	}
	nodesBefore, opsBefore, readsBefore := c.classNodes, c.classOps, c.classReads
	tr.enabled = true
	traced := drive(clients, minOps, quarter)
	tr.enabled = false
	after, diskAfter, walAfter := takeCounts(e, clients), *e.st.disk, timedDM{}
	if e.st.walDev != nil {
		walAfter = *e.st.walDev
	}
	nodesAfter, opsAfter, readsAfter := c.classNodes, c.classOps, c.classReads
	tracedOps := len(c.lat)
	c.reset()
	refTime += drive(clients, minOps/2, quarter/2)
	refOps += len(c.lat)
	res.attempted = refOps + tracedOps
	res.failed = c.failed

	disk, outer := e.st.disk, e.st.outer
	for k, name := range map[ioKind]string{ioRead: "read", ioWrite: "write", ioMeta: "meta", ioSync: "sync"} {
		res.set("storage.disk."+name+"_count", float64(diskAfter.count[k]-diskBefore.count[k]))
		res.set("storage.disk."+name+"_ns", disk.meanNS(k))
	}
	total, self := tr.selfTimes()
	var diskNS, walNS, queryNS, querySelf, updateNS, updateSelf int64
	for _, n := range []uint8{spanDiskRead, spanDiskWrite, spanDiskMeta, spanDiskSync} {
		diskNS += total[n]
	}
	for _, n := range []uint8{spanWALWrite, spanWALMeta, spanWALSync} {
		walNS += total[n]
	}
	for class := opClass(0); class < numClasses; class++ {
		if class.isQuery() {
			queryNS, querySelf = queryNS+total[class], querySelf+self[class]
		} else {
			updateNS, updateSelf = updateNS+total[class], updateSelf+self[class]
		}
	}
	res.set("storage.disk.busy_share", 100*ratio(float64(diskNS), float64(traced)))
	res.set("storage.disk.reads_per_query_steady", readsPerQuery(sp, before, after))
	res.set("storage.resilient.self_ns", ratio(float64(outer.ns[ioRead]-disk.ns[ioRead]), float64(outer.spans[ioRead])))
	res.set("storage.resilient.retries", float64(e.st.res.RetryStats().Retries))
	res.set("storage.tree.self_share", 100*ratio(float64(querySelf), float64(queryNS)))
	res.set("storage.update.self_share", 100*ratio(float64(updateSelf), float64(updateNS)))
	for class, name := range map[opClass]string{opPoint: "point", opWindow: "window", opKNN: "knn"} {
		res.setN("storage.tree.nodes_per_query."+name,
			ratio(float64(nodesAfter[class]-nodesBefore[class]), float64(opsAfter[class]-opsBefore[class])),
			int(opsAfter[class]-opsBefore[class]))
	}
	res.set("storage.tree.results_per_query", ratio(float64(after.results-before.results), float64(after.queries-before.queries)))
	res.set("storage.tree.save_ns_per_page", ratio(float64(setup.save), float64(e.pages)))
	res.set("storage.tree.open_ms", ms(setup.open))
	res.set("pack.load_ns_per_item", ratio(float64(setup.pack), float64(sp.items)))
	res.set("datagen.ns_per_item", ratio(float64(setup.datagen), float64(sp.items)))

	accesses := float64(after.hits - before.hits + after.misses - before.misses)
	res.set("buffer.accesses_per_op", ratio(accesses, float64(tracedOps)))
	res.set("buffer.hit_ratio", 100*ratio(float64(after.hits-before.hits), accesses))
	res.set("buffer.evictions_per_op", ratio(float64(after.evictions-before.evictions), float64(tracedOps)))
	res.set("trace.overhead_pct", 100*(ratio(float64(refOps)/refTime.Seconds(), float64(tracedOps)/traced.Seconds())-1))
	res.notef("traced %d ops in %.2fs (%d spans, %d dropped); reference %d ops in %.2fs",
		tracedOps, traced.Seconds(), len(tr.spans), tr.dropped, refOps, refTime.Seconds())

	if e.st.walDev != nil {
		commits := after.commits - before.commits
		res.set("storage.wal.append_count", float64(walAfter.count[ioWrite]-walBefore.count[ioWrite]))
		res.set("storage.wal.meta_count", float64(walAfter.count[ioMeta]-walBefore.count[ioMeta]))
		res.set("storage.wal.bytes_per_commit", ratio(float64(walAfter.bytes-walBefore.bytes), commits))
		res.set("storage.wal.checkpoints", after.checkpoints-before.checkpoints)
		res.set("storage.wal.busy_share", 100*ratio(float64(walNS), float64(traced)))
		res.set("buffer.write_backs_per_commit", ratio(after.writeBacks-before.writeBacks, commits))
		fsyncs := after.fsyncs - before.fsyncs
		res.set("storage.disk.fsyncs_per_commit", ratio(fsyncs, commits))
		res.set("storage.disk.bytes_written_per_commit", ratio(after.bytesWritten-before.bytesWritten, commits))
		// Every fsync happens inside a Sync or a WriteMeta call, so the
		// wrappers' call counts bound the program's own fsync counter.
		// A Sync makes at most two fsyncs, a WriteMeta at most one.
		syncs := diskAfter.count[ioSync] - diskBefore.count[ioSync] + walAfter.count[ioSync] - walBefore.count[ioSync]
		metas := diskAfter.count[ioMeta] - diskBefore.count[ioMeta] + walAfter.count[ioMeta] - walBefore.count[ioMeta]
		res.attempted++
		if fsyncs > float64(2*syncs+metas) {
			res.failed++
			res.notef("FAIL: %g fsyncs counted in %d Sync and %d WriteMeta calls", fsyncs, syncs, metas)
		}
	}

	// The wrapper saw every read the stack made; the device must agree.
	res.attempted++
	if got, want := disk.count[ioRead], e.file.Stats().Reads; got != want {
		res.failed++
		res.notef("FAIL: wrapper counted %d page reads, the device %d", got, want)
	}

	if sp.buffer >= e.pages && !sp.wal {
		res.set("obs.flight_overhead_pct", flightOverhead(clients, e.st.pt, quarter/2, minOps/2))
	}
	if err := writeTrace(res, cfg, sp.name, tr); err != nil {
		return nil, err
	}

	leaves, err := leafPages(e.file, probeLeaves)
	if err != nil {
		return nil, err
	}
	var missesPerQuery [numClasses]float64
	for class := range missesPerQuery {
		missesPerQuery[class] = ratio(float64(readsAfter[class]-readsBefore[class]), float64(opsAfter[class]-opsBefore[class]))
	}
	if err := runProbes(res, cfg, sp, e, leaves, sample, missesPerQuery); err != nil {
		return nil, err
	}

	a, f := verify(cfg, sp, e, orc, clients, res)
	res.attempted += a
	res.failed += f
	if sp.wal {
		durabilityCheck(cfg, sp, e, res)
	}
	return res, nil
}

// flightOverhead re-runs the workload with the flight recorder and the
// pool's obs counters attached and detached, twice each and interleaved,
// and returns by how many percent the attached runs are slower.
func flightOverhead(clients []*client, pt *storage.PagedTree, budget time.Duration, minOps int) float64 {
	c := clients[0]
	rate := func() float64 {
		c.reset()
		t := drive(clients, minOps, budget)
		return float64(len(c.lat)) / t.Seconds()
	}
	var off, on float64
	for i := 0; i < 2; i++ {
		off += rate()
		pt.SetFlightRecorder(obs.NewFlightRecorder(obs.DefaultFlightRecent, 16))
		pt.Pool().SetMetrics(buffer.NewMetrics(obs.NewRegistry(), bufferPolicyLabel))
		on += rate()
		pt.SetFlightRecorder(nil)
		pt.Pool().SetMetrics(nil)
	}
	return 100 * (ratio(off, on) - 1)
}

// writeTrace writes the spans to trace-<workload>.json in cfg.dir.
func writeTrace(res *result, cfg config, name string, tr *tracer) error {
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.dir, "trace-"+name+".json")
	if err := tr.writeFile(path, name, cfg.seed); err != nil {
		return err
	}
	res.notef("spans written to %s", path)
	return nil
}

// leafPages reads up to n leaf pages straight from the device, newest
// page numbers first: in the level-order file SaveTree writes, the
// leaves are the last pages.
func leafPages(dev storage.DiskManager, n int) ([][]byte, error) {
	var out [][]byte
	for p := dev.NumPages() - 1; p >= 0 && len(out) < n; p-- {
		buf := make([]byte, dev.PageSize())
		if err := dev.ReadPage(p, buf); err != nil {
			return nil, err
		}
		if nd, err := storage.DecodeNode(buf, p); err == nil && nd.Leaf {
			out = append(out, buf)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no leaf page found on the device")
	}
	return out, nil
}

// durabilityCheck runs the write workload over a second copy of the tree
// whose devices lose every unflushed page at a seeded point mid-run, then
// recovers from what was flushed. An operation that returned without
// error before the crash is acknowledged; each one the recovered tree
// does not reflect is counted in storage.wal.acked_lost and as a failure.
func durabilityCheck(cfg config, sp spec, e *env, res *result) {
	walInner, walPath, err := newDevice(cfg, e.dir, "crash.wal", pageSize+storage.WALFrameOverhead)
	if err == nil {
		var run crashedRun
		if run, err = runUntilCrash(cfg, sp, e.spare, walInner); err == nil {
			var lost int
			if lost, walInner, err = lostAfterRecovery(sp, e, walInner, walPath, run); err == nil {
				res.attempted += run.acked
				res.failed += lost
				res.set("storage.wal.acked_lost", float64(lost))
			}
		}
		_ = walInner.Close() // the file is removed with the directory
	}
	if err != nil {
		res.attempted++
		res.failed++
		res.notef("FAIL: durability check: %v", err)
	}
}

// crashedRun is what the harness knows when the devices have crashed.
type crashedRun struct {
	live     []rtree.Item // inserted and not deleted, by acknowledged operations
	inFlight *op          // the operation the crash interrupted, if any
	acked    int
}

// runUntilCrash drives the write mix through volatile wrappers of both
// devices until the seeded crash point fires.
func runUntilCrash(cfg config, sp spec, file, wal storage.DiskManager) (crashedRun, error) {
	crash := &crashPoint{}
	pt, _, err := storage.OpenPagedTreeWAL(storage.NewResilientManager(newVolatileDM(file, crash)), newVolatileDM(wal, crash), sp.buffer)
	if err != nil {
		return crashedRun{}, err
	}
	pt.SetCheckpointPolicy(checkpointPolicy)

	rng := rand.New(rand.NewPCG(cfg.seed, streamCrash))
	ops := max(sp.prefix/16, 40)
	crashOp := ops/3 + rng.IntN(ops/3)
	gen := newOpGen(sp, cfg.seed, streamDurable)
	c := newClient(pt, gen, 0)
	var run crashedRun
	for i := 0; i < ops; i++ {
		if i == crashOp {
			crash.armed, crash.remaining = true, rng.IntN(4)
		}
		o := gen.next()
		if _, err := c.exec(o); err != nil {
			if !crash.crashed {
				return run, fmt.Errorf("before the crash: %w", err)
			}
			run.inFlight, run.live = &o, gen.live
			return run, nil
		}
		gen.done(o)
		run.acked++
	}
	return run, fmt.Errorf("the crash point never fired in %d operations", ops)
}

// lostAfterRecovery reopens both devices, so that only what reached the
// medium is left, recovers through OpenPagedTreeWAL and counts the
// acknowledged operations the tree does not reflect. The operation the
// crash interrupted was never acknowledged: either outcome is correct.
func lostAfterRecovery(sp spec, e *env, wal storage.DiskManager, walPath string, run crashedRun) (int, storage.DiskManager, error) {
	var err error
	if e.spare, err = reopenDevice(e.spare, e.sparePath); err != nil {
		return 0, wal, err
	}
	if wal, err = reopenDevice(wal, walPath); err != nil {
		return 0, wal, err
	}
	pt, _, err := storage.OpenPagedTreeWAL(storage.NewResilientManager(e.spare), wal, sp.buffer)
	if err != nil {
		return 0, wal, fmt.Errorf("recovery: %w", err)
	}
	want := make(map[int64]bool, len(run.live))
	for _, it := range run.live {
		want[it.ID] = true
	}
	either := noID
	if run.inFlight != nil && !run.inFlight.class.isQuery() {
		either = run.inFlight.item.ID
		delete(want, either)
	}
	missing, unexpected := missingAndUnexpected(pt, sp.items, want, either)
	if rep := storage.Scrub(e.spare); !rep.Clean() {
		return 0, wal, fmt.Errorf("scrub after recovery: %s", rep)
	}
	return missing + unexpected, wal, nil
}

package killmatrix

// The kill matrix's seeded faults. Each is a small edit a reviewer could
// plausibly wave through; names say what breaks, aims say which check
// the fault was written for. Anchors are checked against the working
// tree in tier-1 (TestKillMatrixAnchorsApply).

const (
	bufferPkg  = "./internal/buffer"
	storagePkg = "./internal/storage"
	simPkg     = "./internal/sim"
	expPkg     = "./internal/experiments"
	parPkg     = "./internal/par"
	corePkg    = "./internal/core"
	obsPkg     = "./internal/obs"
	ndPkg      = "./internal/nd"
	geomPkg    = "./internal/geom"
	benchPkg   = "./bench"
)

var catalogue = []mutant{
	// ---- lockcheck (retired: buffer's TestShardedHitNotBlockedByParkedRead
	// and tier-1's pin tests kill the rows, one is an equivalent mutant)
	{
		name: "lock-view-reads-under-mutex", aim: "lockcheck",
		what: "ShardedPool.View reads the source with the shard mutex held",
		edits: []edit{{"internal/buffer/sharded.go",
			"\terr = sh.pool.src.ReadPage(local, frame)\n\tsh.mu.Lock()\n\tdefer sh.mu.Unlock()\n",
			"\tsh.mu.Lock()\n\tdefer sh.mu.Unlock()\n\terr = sh.pool.src.ReadPage(local, frame)\n"}},
		pkgs: []string{bufferPkg, storagePkg},
	},
	{
		name: "lock-unpin-drops-unlock", aim: "lockcheck",
		what: "ShardedPool.Unpin returns without unlocking its shard",
		edits: []edit{{"internal/buffer/sharded.go",
			"\tsh.pool.Unpin(local)\n\tsh.mu.Unlock()\n", "\tsh.pool.Unpin(local)\n"}},
		pkgs: []string{bufferPkg, storagePkg},
	},
	// Equivalent: probe fails only on a page outside the shard's page
	// space, which locate has already refused, or on a resident page's
	// pin when every slot is pinned, which the resident unpinned page
	// itself rules out; so the edit's early return never runs
	// (buffer's TestShardedPinErrorsReleaseShard drives every reachable
	// Pin failure).
	{
		name: "lock-pin-error-path-leaks", aim: "lockcheck", rare: true, benign: true,
		what: "ShardedPool.Pin returns probe's error before unlocking",
		edits: []edit{{"internal/buffer/sharded.go",
			"\tframe, done, err := sh.pool.probe(local, true)\n\tsh.mu.Unlock()\n\tif done || err != nil {\n\t\treturn s.globalize(err, page)\n\t}\n",
			"\tframe, done, err := sh.pool.probe(local, true)\n\tif err != nil {\n\t\treturn s.globalize(err, page)\n\t}\n\tsh.mu.Unlock()\n\tif done {\n\t\treturn nil\n\t}\n"}},
		pkgs: []string{bufferPkg, storagePkg},
	},

	// ---- sharecheck (retired: internal/par's TestSpawnSitesRunUnderRace
	// runs the engine's fan-out under -race in tier-1 and kills both rows)
	{
		name: "share-replica-total", aim: "sharecheck",
		what: "forEachPoint's workers count finished sweep points into one captured total for a counter",
		edits: []edit{{"internal/experiments/engine.go",
			"\treturn runIndexed(c.workers, n, fn)\n",
			"\tvar done uint64\n\terr := runIndexed(c.workers, n, func(i int) error {\n\t\terr := fn(i)\n\t\tdone++\n\t\treturn err\n\t})\n\tc.Metrics.Counter(\"experiments_points_total\").Add(done)\n\treturn err\n"}},
		pkgs: []string{expPkg, parPkg},
	},
	{
		name: "share-engine-wall-total", aim: "sharecheck", rare: true,
		what: "RunAllTimed's workers sum wall seconds into one captured float for a gauge",
		edits: []edit{
			{"internal/experiments/engine.go",
				"\ttimings := make([]Timing, len(ids))\n",
				"\ttimings := make([]Timing, len(ids))\n\tvar wall float64\n"},
			{"internal/experiments/engine.go",
				"\t\ttimings[i] = Timing{ID: ids[i], Seconds: time.Since(start).Seconds()}\n",
				"\t\ttimings[i] = Timing{ID: ids[i], Seconds: time.Since(start).Seconds()}\n\t\twall += timings[i].Seconds\n"},
			{"internal/experiments/engine.go",
				"\tif err != nil {\n\t\treturn nil, nil, err\n\t}\n\treturn reports, timings, nil\n",
				"\tcfg.Metrics.Gauge(\"experiments_wall_seconds\").Set(wall)\n\tif err != nil {\n\t\treturn nil, nil, err\n\t}\n\treturn reports, timings, nil\n"},
		},
		pkgs: []string{expPkg, parPkg},
	},

	// ---- hotalloc (retired: the runtime allocation gates kill every row)
	{
		name: "alloc-fetch-hit-copies", aim: "hotalloc",
		what: "Pool.probe returns a defensive copy of the frame on a hit",
		edits: []edit{{"internal/buffer/pool.go",
			"\t\tp.policy.Access(page)\n\t}\n\treturn p.frames[page], true, err\n",
			"\t\tp.policy.Access(page)\n\t}\n\tout := make([]byte, len(p.frames[page]))\n\tcopy(out, p.frames[page])\n\treturn out, true, err\n"}},
		pkgs: []string{bufferPkg, storagePkg},
	},
	{
		name: "alloc-fetch-hit-stack-make", aim: "hotalloc", benign: true,
		what: "same site, a 64-byte make the compiler keeps on the stack (nothing allocates)",
		edits: []edit{{"internal/buffer/pool.go",
			"\t\tp.policy.Access(page)\n\t}\n\treturn p.frames[page], true, err\n",
			"\t\tp.policy.Access(page)\n\t}\n\thead := make([]byte, 64)\n\tcopy(head, p.frames[page])\n\t_ = head[0]\n\treturn p.frames[page], true, err\n"}},
		pkgs: []string{bufferPkg, storagePkg},
	},

	// ---- durcheck and errflow: the commit protocol (retired: tier-1
	// tests kill every row, storage's crash explorer and failure tests
	// among them)
	{
		name: "dur-put-before-append", aim: "durcheck:commit-before-writeback",
		what: "commitUpdate installs the batch's pages in the pool before AppendBatch",
		edits: []edit{
			{"internal/storage/update.go",
				"\tpt.wpool.Grow(u.meta.PageSpan())\n\tfor _, img := range images {\n\t\tif err := pt.wpool.Put(img.Page, img.Data); err != nil {\n\t\t\tpt.updateErr = err\n\t\t\treturn fmt.Errorf(\"storage: applying committed batch %d: %w\", batch, err)\n\t\t}\n\t}\n",
				""},
			{"internal/storage/update.go",
				"\tmetaBytes := u.encodeMeta()\n\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n",
				"\tpt.wpool.Grow(u.meta.PageSpan())\n\tfor _, img := range images {\n\t\tif err := pt.wpool.Put(img.Page, img.Data); err != nil {\n\t\t\treturn err\n\t\t}\n\t}\n\tmetaBytes := u.encodeMeta()\n\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n"},
		},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-checkpoint-without-sync", aim: "durcheck:checkpoint-after-sync", rare: true,
		what: "commitUpdate's ckpt.Due branch checkpoints without syncManager",
		edits: []edit{{"internal/storage/update.go",
			"\t\tif err := syncManager(pt.dm); err != nil {\n", "\t\tif err := error(nil); err != nil {\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "errflow-return-sync-error", aim: "errflow", rare: true,
		what: "commitUpdate returns the pre-checkpoint sync error after the commit point",
		edits: []edit{{"internal/storage/update.go",
			"\t\t\tpt.ckptErr = fmt.Errorf(\"storage: sync before checkpoint of batch %d: %w\", batch, err)\n\t\t\tpt.wal.metrics.noteWALCheckpointFailure()\n",
			"\t\t\treturn fmt.Errorf(\"storage: sync before checkpoint of batch %d: %w\", batch, err)\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-writemeta-sync-deleted", aim: "durcheck:writemeta-syncs",
		what: "FileManager.WriteMeta publishes the header without syncing dirty data",
		edits: []edit{{"internal/storage/disk.go",
			"\tif hdr || fm.dataDirty.Load() {\n\t\tfm.dataDirty.Store(false)\n\t\tif err := fm.f.Sync(); err != nil {\n\t\t\tfm.meta = old\n\t\t\tfm.dataDirty.Store(true)\n\t\t\tif hdr {\n\t\t\t\tfm.hdrDirty.Store(true)\n\t\t\t}\n\t\t\treturn fmt.Errorf(\"storage: syncing pages before header update: %w\", err)\n\t\t}\n\t\tfm.metrics.noteFsync()\n\t}\n\tif err := fm.writeHeader(numPages); err != nil {\n\t\tfm.meta = old\n",
			"\tif err := fm.writeHeader(numPages); err != nil {\n\t\tfm.meta = old\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-writemeta-sync-unreachable", aim: "durcheck:writemeta-syncs",
		what: "same block kept but made unreachable (if false && ...)",
		edits: []edit{{"internal/storage/disk.go",
			"\tif hdr || fm.dataDirty.Load() {\n\t\tfm.dataDirty.Store(false)\n\t\tif err := fm.f.Sync(); err != nil {\n\t\t\tfm.meta = old\n",
			"\tif false && (hdr || fm.dataDirty.Load()) {\n\t\tfm.dataDirty.Store(false)\n\t\tif err := fm.f.Sync(); err != nil {\n\t\t\tfm.meta = old\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},

	// ---- determcheck (retired: tier-1 tests kill every row but one,
	// which is an equivalent mutant)
	{
		name: "determ-clock-in-batch-mean", aim: "determcheck",
		what: "runReplica adds the wall clock's parity to a batch's miss count",
		edits: []edit{
			{"internal/sim/sim.go", "import (\n\t\"fmt\"\n\t\"math\"\n\t\"math/rand/v2\"\n", "import (\n\t\"fmt\"\n\t\"math\"\n\t\"math/rand/v2\"\n\t\"time\"\n"},
			{"internal/sim/sim.go",
				"\t\tdiskBatch[b] = float64(disk) / float64(cfg.BatchSize)\n",
				"\t\tdiskBatch[b] = float64(disk+int(time.Now().UnixNano()&1)) / float64(cfg.BatchSize)\n"},
		},
		pkgs: []string{simPkg, expPkg},
	},

	// ---- mutexcopy
	{
		name: "copy-shard-value-receiver", aim: "mutexcopy",
		what: "poolShard.viewResident takes a value receiver, locking a copy of the mutex",
		edits: []edit{{"internal/buffer/sharded.go",
			"func (sh *poolShard) viewResident(", "func (sh poolShard) viewResident("}},
		pkgs: []string{bufferPkg, storagePkg},
	},
	{
		name: "copy-shard-in-failedreads", aim: "mutexcopy", rare: true,
		what: "ShardedPool.FailedReads locks a dereferenced copy of each shard",
		edits: []edit{{"internal/buffer/sharded.go",
			"\tfor _, sh := range s.shards {\n\t\tsh.mu.Lock()\n\t\tn += sh.pool.FailedReads()\n",
			"\tfor _, p := range s.shards {\n\t\tsh := *p\n\t\tsh.mu.Lock()\n\t\tn += sh.pool.FailedReads()\n"}},
		pkgs: []string{bufferPkg, storagePkg},
	},

	// ---- atomiccheck (retired: storage's TestTypedAtomicsOnly kills the
	// legacy-API row, go vet copylocks the copy)
	{
		name: "atomic-legacy-iocounters", aim: "atomiccheck",
		what: "the disk managers' I/O counters become plain uint64s bumped with atomic.AddUint64 and read plainly in Stats",
		edits: []edit{
			{"internal/storage/disk.go", "\treads, writes atomic.Uint64\n", "\treads, writes uint64\n"},
			{"internal/storage/disk.go", "\treturn IOStats{Reads: c.reads.Load(), Writes: c.writes.Load()}\n", "\treturn IOStats{Reads: c.reads, Writes: c.writes}\n"},
			{"internal/storage/disk.go", "\tc.reads.Store(0)\n\tc.writes.Store(0)\n", "\tatomic.StoreUint64(&c.reads, 0)\n\tatomic.StoreUint64(&c.writes, 0)\n"},
			{"internal/storage/disk.go", "\tm.stats.reads.Add(1)\n", "\tatomic.AddUint64(&m.stats.reads, 1)\n"},
			{"internal/storage/disk.go", "\tm.stats.writes.Add(1)\n", "\tatomic.AddUint64(&m.stats.writes, 1)\n"},
			{"internal/storage/disk.go", "\tfm.stats.reads.Add(1)\n", "\tatomic.AddUint64(&fm.stats.reads, 1)\n"},
			{"internal/storage/disk.go", "\tfm.stats.writes.Add(1)\n", "\tatomic.AddUint64(&fm.stats.writes, 1)\n"},
		},
		pkgs: []string{storagePkg, bufferPkg, benchPkg},
	},
	{
		name: "atomic-counter-value-copies", aim: "atomiccheck", rare: true,
		what: "obs.Counter.Value copies the typed atomic and loads the copy",
		edits: []edit{{"internal/obs/obs.go",
			"\treturn c.v.Load()\n", "\tv := c.v\n\treturn v.Load()\n"}},
		pkgs: []string{obsPkg},
	},

	// ---- hotalloc beyond the pool: sim's TestQueriesAllocateNothing,
	// core's TestModelAllocations and obs's TestObsEnabledZeroAlloc
	{
		name: "alloc-replica-query-scratch", aim: "hotalloc",
		what: "(*replica).query sizes a fresh page scratch per query instead of reusing r.pages",
		edits: []edit{{"internal/sim/sim.go",
			"\tr.pages = r.next(r.pages[:0])\n", "\tr.pages = r.next(make([]int32, 0, 16))\n"}},
		pkgs: []string{simPkg, expPkg},
	},
	{
		name: "alloc-sum-collects-terms", aim: "hotalloc",
		what: "Predictor.sum, the per-node model pass, collects its terms in a fresh slice",
		edits: []edit{{"internal/core/predictor.go",
			"\tvar total float64\n\tlvl := 0\n\tfor i := from; i < len(p.flat); i += stride {\n\t\tt := term(i)\n\t\ttotal += t\n",
			"\tvar total float64\n\tlvl := 0\n\tterms := make([]float64, 0, len(p.flat))\n\tfor i := from; i < len(p.flat); i += stride {\n\t\tt := term(i)\n\t\tterms = append(terms, t)\n\t\ttotal += t\n"}},
		pkgs: []string{corePkg, expPkg},
	},
	{
		name: "alloc-counter-inc-marks", aim: "hotalloc", rare: true,
		what: "obs.Counter.Inc appends every power-of-two count to a slice on the counter",
		edits: []edit{
			{"internal/obs/obs.go", "type Counter struct {\n\tv atomic.Uint64\n}", "type Counter struct {\n\tv     atomic.Uint64\n\tmarks []uint64\n}"},
			{"internal/obs/obs.go", "\tc.v.Add(1)\n", "\tif n := c.v.Add(1); n&(n-1) == 0 {\n\t\tc.marks = append(c.marks, n)\n\t}\n"},
		},
		pkgs: []string{obsPkg, bufferPkg, simPkg},
	},

	// ---- durcheck: the remaining rules (retired like the rows above;
	// dur-flush-header-before-sync stays the matrix's one GAP).
	// ROADMAP's "a write-back path that appends to the log" has no row:
	// the write-back paths live in internal/buffer, which cannot name the
	// WAL (storage imports buffer), so the import graph already forbids
	// what writeback-pages-only's LogAppend/Commit/Checkpoint half guarded;
	// its mutants publish the catalog through the sink instead.
	{
		name: "dur-flush-before-append", aim: "durcheck:commit-before-writeback",
		what: "commitUpdate flushes the pool's dirty pages before AppendBatch instead of after the Puts",
		edits: []edit{
			{"internal/storage/update.go",
				"\tif err := pt.wpool.FlushDirty(); err != nil {\n\t\tpt.updateErr = err\n\t\treturn fmt.Errorf(\"storage: applying committed batch %d: %w\", batch, err)\n\t}\n",
				""},
			{"internal/storage/update.go",
				"\tmetaBytes := u.encodeMeta()\n\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n",
				"\tif err := pt.wpool.FlushDirty(); err != nil {\n\t\treturn err\n\t}\n\tmetaBytes := u.encodeMeta()\n\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n"},
		},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-early-put-large-batch", aim: "durcheck:commit-before-writeback", rare: true,
		what: "commitUpdate installs batches of more than 64 pages in the pool before AppendBatch, to bound staging memory",
		edits: []edit{{"internal/storage/update.go",
			"\tmetaBytes := u.encodeMeta()\n\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n",
			"\tif len(images) > 64 {\n\t\tpt.wpool.Grow(u.meta.PageSpan())\n\t\tfor _, img := range images {\n\t\t\tif err := pt.wpool.Put(img.Page, img.Data); err != nil {\n\t\t\t\treturn err\n\t\t\t}\n\t\t}\n\t}\n\tmetaBytes := u.encodeMeta()\n\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-catalog-before-append", aim: "durcheck:commit-before-catalog",
		what: "commitUpdate publishes the new catalog before AppendBatch",
		edits: []edit{
			{"internal/storage/update.go",
				"\tif err := pt.dm.WriteMeta(metaBytes); err != nil {\n\t\tpt.updateErr = err\n\t\treturn fmt.Errorf(\"storage: applying committed batch %d: %w\", batch, err)\n\t}\n",
				""},
			{"internal/storage/update.go",
				"\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n",
				"\tif err := pt.dm.WriteMeta(metaBytes); err != nil {\n\t\treturn err\n\t}\n\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n"},
		},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-catalog-on-freelist-overflow", aim: "durcheck:commit-before-catalog", rare: true,
		what: "commitUpdate publishes the catalog at once when it trims an overflowing free list, before anything is logged",
		edits: []edit{{"internal/storage/update.go",
			"\t\tu.meta.Free = u.meta.Free[:max]\n",
			"\t\tu.meta.Free = u.meta.Free[:max]\n\t\tif err := pt.dm.WriteMeta(encodeMetaV2(u.meta)); err != nil {\n\t\t\treturn err\n\t\t}\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-catalog-on-append-failure", aim: "durcheck:commit-before-catalog", rare: true,
		what: "commitUpdate publishes the new catalog best-effort when AppendBatch fails",
		edits: []edit{{"internal/storage/update.go",
			"\t\treturn fmt.Errorf(\"storage: logging update: %w\", err)\n",
			"\t\t_ = pt.dm.WriteMeta(metaBytes)\n\t\treturn fmt.Errorf(\"storage: logging update: %w\", err)\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-checkpoint-before-append", aim: "durcheck:commit-before-checkpoint", rare: true,
		what: "commitUpdate first checkpoints every earlier batch (unsynced when the last end-of-commit checkpoint failed), then appends",
		edits: []edit{{"internal/storage/update.go",
			"\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n",
			"\tif pt.ckpt.Due(pt.wal) {\n\t\t_ = pt.wal.Checkpoint(pt.wal.nextBatch - 1)\n\t}\n\tbatch, err := pt.wal.AppendBatch(images, metaBytes)\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-checkpoint-on-append-failure", aim: "durcheck:commit-before-checkpoint", rare: true,
		what: "commitUpdate checkpoints to discard the partial records when AppendBatch fails",
		edits: []edit{{"internal/storage/update.go",
			"\t\treturn fmt.Errorf(\"storage: logging update: %w\", err)\n",
			"\t\t_ = pt.wal.Checkpoint(pt.wal.AppliedBatch())\n\t\treturn fmt.Errorf(\"storage: logging update: %w\", err)\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-flush-header-before-sync", aim: "durcheck:sync-before-publish",
		what: "FileManager.Flush rewrites the header before syncing the page data (the PR 7 order)",
		edits: []edit{
			{"internal/storage/disk.go",
				"\tfm.dataDirty.Store(false)\n\tif err := fm.f.Sync(); err != nil {\n\t\tfm.dataDirty.Store(true)\n\t\tif hdr {\n\t\t\tfm.hdrDirty.Store(true)\n\t\t}\n\t\treturn fmt.Errorf(\"storage: syncing pages before header update: %w\", err)\n\t}\n\tfm.metrics.noteFsync()\n\tif hdr {\n\t\tif err := fm.writeHeader(numPages); err != nil {\n\t\t\tfm.hdrDirty.Store(true)\n\t\t\treturn err\n\t\t}\n\t}\n\treturn nil\n",
				"\tfm.dataDirty.Store(false)\n\tif hdr {\n\t\tif err := fm.writeHeader(numPages); err != nil {\n\t\t\tfm.hdrDirty.Store(true)\n\t\t\treturn err\n\t\t}\n\t}\n\tif err := fm.f.Sync(); err != nil {\n\t\tfm.dataDirty.Store(true)\n\t\treturn fmt.Errorf(\"storage: syncing pages after header update: %w\", err)\n\t}\n\tfm.metrics.noteFsync()\n\treturn nil\n"},
		},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-writepage-publishes-growth", aim: "durcheck:sync-before-publish", rare: true,
		what: "FileManager.WritePage rewrites the header at once when a write extends the file",
		edits: []edit{{"internal/storage/disk.go",
			"\t\tif fm.numPages.CompareAndSwap(n, int64(page)+1) {\n\t\t\tfm.hdrDirty.Store(true)\n",
			"\t\tif fm.numPages.CompareAndSwap(n, int64(page)+1) {\n\t\t\tif err := fm.writeHeader(int64(page) + 1); err != nil {\n\t\t\t\treturn err\n\t\t\t}\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-savetree-publishes-past-writemeta", aim: "durcheck:sync-before-publish",
		what: "SaveTree on a *FileManager rewrites the header itself instead of calling WriteMeta, leaving the sync to the caller's Close",
		edits: []edit{{"internal/storage/tree.go",
			"\treturn dm.WriteMeta(encodeMeta(meta))\n}\n\n// SaveTreeAtomic persists",
			"\tif fm, ok := dm.(*FileManager); ok {\n\t\t// The caller closes (and so syncs) the file right after a save.\n\t\tfm.meta = encodeMeta(meta)\n\t\treturn fm.writeHeader(fm.numPages.Load())\n\t}\n\treturn dm.WriteMeta(encodeMeta(meta))\n}\n\n// SaveTreeAtomic persists"}},
		pkgs: []string{storagePkg, benchPkg, "./cmd/rtreeload", "./cmd/rtreefsck", "."},
	},
	{
		name: "dur-writemeta-sync-only-on-growth", aim: "durcheck:writemeta-syncs", rare: true,
		what: "FileManager.WriteMeta syncs only when the file grew, not after in-place overwrites (the PR 7 bug)",
		edits: []edit{{"internal/storage/disk.go",
			"\tif hdr || fm.dataDirty.Load() {\n\t\tfm.dataDirty.Store(false)\n\t\tif err := fm.f.Sync(); err != nil {\n\t\t\tfm.meta = old\n",
			"\tif hdr {\n\t\tfm.dataDirty.Store(false)\n\t\tif err := fm.f.Sync(); err != nil {\n\t\t\tfm.meta = old\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-recover-skips-catalog", aim: "durcheck:replay-pages-then-catalog",
		what: "Recover replays each batch's pages and never installs its catalog",
		edits: []edit{{"internal/storage/wal.go",
			"\t\tif err := dm.WriteMeta(b.meta); err != nil {\n\t\t\treturn rep, fmt.Errorf(\"storage: recovery of batch %d catalog: %w\", b.id, err)\n\t\t}\n",
			""}},
		pkgs: []string{storagePkg, benchPkg, "./cmd/rtreefsck"},
	},
	{
		name: "dur-recover-catalog-only-on-growth", aim: "durcheck:replay-pages-then-catalog", rare: true,
		what: "Recover installs a batch's catalog only when the replay grew the page file",
		edits: []edit{
			{"internal/storage/wal.go",
				"\tfor _, b := range pending {\n\t\tfor _, img := range b.images {\n\t\t\tif err := dm.WritePage(img.Page, img.Data); err != nil {\n",
				"\tfor _, b := range pending {\n\t\tbefore := dm.NumPages()\n\t\tfor _, img := range b.images {\n\t\t\tif err := dm.WritePage(img.Page, img.Data); err != nil {\n"},
			{"internal/storage/wal.go",
				"\t\tif err := dm.WriteMeta(b.meta); err != nil {\n\t\t\treturn rep, fmt.Errorf(\"storage: recovery of batch %d catalog: %w\", b.id, err)\n\t\t}\n",
				"\t\tif dm.NumPages() > before {\n\t\t\tif err := dm.WriteMeta(b.meta); err != nil {\n\t\t\t\treturn rep, fmt.Errorf(\"storage: recovery of batch %d catalog: %w\", b.id, err)\n\t\t\t}\n\t\t}\n"},
		},
		pkgs: []string{storagePkg, benchPkg, "./cmd/rtreefsck"},
	},
	{
		name: "dur-checkpoint-then-sync", aim: "durcheck:checkpoint-after-sync",
		what: "commitUpdate checkpoints first and syncs the page file afterwards",
		edits: []edit{{"internal/storage/update.go",
			"\t\tif err := syncManager(pt.dm); err != nil {\n\t\t\tpt.ckptErr = fmt.Errorf(\"storage: sync before checkpoint of batch %d: %w\", batch, err)\n\t\t\tpt.wal.metrics.noteWALCheckpointFailure()\n\t\t} else if err := pt.wal.Checkpoint(batch); err != nil {\n",
			"\t\tif err := pt.wal.Checkpoint(batch); err != nil {\n\t\t\tpt.ckptErr = fmt.Errorf(\"storage: sync before checkpoint of batch %d: %w\", batch, err)\n\t\t\tpt.wal.metrics.noteWALCheckpointFailure()\n\t\t} else if err := syncManager(pt.dm); err != nil {\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},
	{
		name: "dur-flushpage-republishes-catalog", aim: "durcheck:writeback-pages-only",
		what: "Pool.flushPage republishes the sink's catalog after every write-back",
		edits: []edit{{"internal/buffer/pool.go",
			"\tp.metrics.onWriteBack()\n\tp.dirty[page] = false\n",
			"\tif c, ok := p.sink.(interface {\n\t\tReadMeta() ([]byte, error)\n\t\tWriteMeta([]byte) error\n\t}); ok {\n\t\tif meta, err := c.ReadMeta(); err == nil {\n\t\t\t_ = c.WriteMeta(meta)\n\t\t}\n\t}\n\tp.metrics.onWriteBack()\n\tp.dirty[page] = false\n"}},
		pkgs: []string{bufferPkg, storagePkg, benchPkg},
	},
	{
		name: "dur-flushdirty-failure-publishes", aim: "durcheck:writeback-pages-only", rare: true,
		what: "Pool.FlushDirty republishes the sink's catalog when a write-back fails, to keep what was flushed",
		edits: []edit{{"internal/buffer/pool.go",
			"\t\tif err := p.flushPage(page); err != nil {\n\t\t\trest := p.dirtyList[i:]\n",
			"\t\tif err := p.flushPage(page); err != nil {\n\t\t\tif c, ok := p.sink.(interface {\n\t\t\t\tReadMeta() ([]byte, error)\n\t\t\t\tWriteMeta([]byte) error\n\t\t\t}); ok {\n\t\t\t\tif meta, merr := c.ReadMeta(); merr == nil {\n\t\t\t\t\t_ = c.WriteMeta(meta)\n\t\t\t\t}\n\t\t\t}\n\t\t\trest := p.dirtyList[i:]\n"}},
		pkgs: []string{bufferPkg, storagePkg, benchPkg},
	},
	{
		name: "dur-put-republishes-catalog", aim: "durcheck:writeback-pages-only",
		what: "Pool.Put republishes the sink's catalog after installing a page",
		edits: []edit{{"internal/buffer/pool.go",
			"\tcopy(p.frames[page], data)\n\tp.setDirty(page)\n",
			"\tcopy(p.frames[page], data)\n\tp.setDirty(page)\n\tif c, ok := p.sink.(interface {\n\t\tReadMeta() ([]byte, error)\n\t\tWriteMeta([]byte) error\n\t}); ok {\n\t\tif meta, err := c.ReadMeta(); err == nil {\n\t\t\t_ = c.WriteMeta(meta)\n\t\t}\n\t}\n"}},
		pkgs: []string{bufferPkg, storagePkg, benchPkg},
	},
	{
		name: "errflow-return-checkpoint-error", aim: "errflow",
		what: "commitUpdate returns the checkpoint's own error after the commit point",
		edits: []edit{{"internal/storage/update.go",
			"\t\t\tpt.ckptErr = fmt.Errorf(\"storage: checkpointing batch %d: %w\", batch, err)\n\t\t\tpt.wal.metrics.noteWALCheckpointFailure()\n",
			"\t\t\treturn fmt.Errorf(\"storage: checkpointing batch %d: %w\", batch, err)\n"}},
		pkgs: []string{storagePkg, benchPkg},
	},

	// ---- determcheck beyond the clock
	{
		name: "determ-global-rand-walk", aim: "determcheck",
		what: "RandomWalk.Next draws its steps from the global math/rand stream instead of the replica's",
		edits: []edit{{"internal/sim/locality.go",
			"\tw.pos.X = reflect01(w.pos.X + w.Step*rng.NormFloat64())\n",
			"\tw.pos.X = reflect01(w.pos.X + w.Step*rand.NormFloat64())\n"}},
		pkgs: []string{simPkg, expPkg},
	},
	// Equivalent: the last cumulative weight is sum/sum, exactly 1, and
	// rng.Float64() is < 1, so the branch the edit rewrites never runs.
	{
		name: "determ-global-rand-edge", aim: "determcheck", rare: true, benign: true,
		what: "WeightedCenters.Next picks a global-stream random center when the draw lands past the last cumulative weight",
		edits: []edit{{"internal/sim/locality.go",
			"\tif i >= len(w.centers) {\n\t\ti = len(w.centers) - 1\n\t}\n",
			"\tif i >= len(w.centers) {\n\t\ti = rand.IntN(len(w.centers))\n\t}\n"}},
		pkgs: []string{simPkg, expPkg},
	},
	{
		name: "determ-map-order-prom-labels", aim: "determcheck",
		what: "obs.promLabels renders the label set by ranging a map",
		edits: []edit{{"internal/obs/export.go",
			"\tfor i, l := range all {\n\t\tif i > 0 {\n\t\t\tb.WriteByte(',')\n\t\t}\n\t\tfmt.Fprintf(&b, `%s=\"%s\"`, l.Key, promEscape(l.Value))\n\t}\n",
			"\tset := make(map[string]string, len(all))\n\tfor _, l := range all {\n\t\tset[l.Key] = promEscape(l.Value)\n\t}\n\ti := 0\n\tfor k, v := range set {\n\t\tif i > 0 {\n\t\t\tb.WriteByte(',')\n\t\t}\n\t\tfmt.Fprintf(&b, `%s=\"%s\"`, k, v)\n\t\ti++\n\t}\n"}},
		pkgs: []string{obsPkg, "./cmd/rtreequery"},
	},
	{
		name: "determ-encode-stamps-clock", aim: "determcheck", rare: true,
		what: "EncodeNode stamps the wall clock's seconds into the page header's reserved word",
		edits: []edit{
			{"internal/storage/codec.go", "\t\"hash/crc32\"\n\t\"math\"\n", "\t\"hash/crc32\"\n\t\"math\"\n\t\"time\"\n"},
			{"internal/storage/codec.go",
				"\tsetPageCount(buf, count)\n\tclear(buf[nodeHeaderSize+count*entrySize:])\n",
				"\tsetPageCount(buf, count)\n\tbinary.LittleEndian.PutUint32(buf[12:16], uint32(time.Now().Unix()))\n\tclear(buf[nodeHeaderSize+count*entrySize:])\n"},
		},
		pkgs: []string{storagePkg, benchPkg, "./cmd/rtreeload", "./cmd/rtreefsck"},
	},

	// ---- iopurity (retired: core's and sim's TestNoIOImports kill both
	// rows)
	{
		name: "io-core-reads-env", aim: "iopurity",
		what: "core.NewPredictorFromProbs consults an environment variable and logs to stderr",
		edits: []edit{
			{"internal/core/predictor.go", "import (\n\t\"fmt\"\n\t\"math\"\n", "import (\n\t\"fmt\"\n\t\"math\"\n\t\"os\"\n"},
			{"internal/core/predictor.go",
				"\tp.sw = newSweeper(p.flat)\n\treturn p\n",
				"\tp.sw = newSweeper(p.flat)\n\tif os.Getenv(\"RTREEBUF_TRACE\") != \"\" {\n\t\tfmt.Fprintf(os.Stderr, \"core: predictor over %d nodes\\n\", len(p.flat))\n\t}\n\treturn p\n"},
		},
		pkgs: []string{corePkg, expPkg},
	},
	{
		name: "io-sim-warns-on-worker-cap", aim: "iopurity", rare: true,
		what: "sim's Config.checked prints a warning to stderr before rejecting a buffer of no pages",
		edits: []edit{
			{"internal/sim/sim.go", "import (\n\t\"fmt\"\n\t\"math\"\n\t\"math/rand/v2\"\n", "import (\n\t\"fmt\"\n\t\"math\"\n\t\"math/rand/v2\"\n\t\"os\"\n"},
			{"internal/sim/sim.go",
				"\tif c.BufferSize < 1 {\n\t\treturn c, fmt.Errorf(",
				"\tif c.BufferSize < 1 {\n\t\tfmt.Fprintf(os.Stderr, \"sim: rejecting buffer size %d\\n\", c.BufferSize)\n\t\treturn c, fmt.Errorf("},
		},
		pkgs: []string{simPkg, expPkg},
	},

	// ---- floatcmp (retired: tier-1 tests kill every row)
	{
		name: "float-uniform-exact-zero", aim: "floatcmp",
		what: "UniformQueries.AccessProb tests its clipped extents with == 0, so an MBR outside on both axes gets a positive probability",
		edits: []edit{{"internal/core/model.go",
			"\tif c <= 0 || d <= 0 {\n", "\tif c == 0 || d == 0 {\n"}},
		pkgs: []string{corePkg, expPkg},
	},
	{
		name: "float-hitratio-exact-zero", aim: "floatcmp", rare: true,
		what: "Predictor.HitRatio guards its division with ept == 0 instead of ApproxEqual",
		edits: []edit{{"internal/core/predictor.go",
			"\tif geom.ApproxEqual(ept, 0, 1e-12) {\n", "\tif ept == 0 {\n"}},
		pkgs: []string{corePkg, expPkg},
	},
	{
		name: "float-nd-exact-zero", aim: "floatcmp",
		what: "nd.UniformQueries.AccessProb tests a clipped extent with == 0",
		edits: []edit{{"internal/nd/model.go",
			"\t\tif c <= 0 {\n", "\t\tif c == 0 {\n"}},
		pkgs: []string{ndPkg, expPkg},
	},

	// ---- probrange (retired: tier-1 tests kill every row but one, which
	// is an equivalent mutant)
	{
		name: "prob-kamel-faloutsos-uncapped", aim: "probrange",
		what: "KamelFaloutsosQueries.AccessProb returns the raw extended area, which exceeds 1 near the boundary",
		edits: []edit{{"internal/core/model.go",
			"\tp := (mbr.Width() + k.QX) * (mbr.Height() + k.QY)\n\treturn math.Min(p, 1)\n",
			"\tp := (mbr.Width() + k.QX) * (mbr.Height() + k.QY)\n\treturn p\n"}},
		pkgs: []string{corePkg, expPkg},
	},
	{
		name: "prob-weighted-uncapped", aim: "probrange", rare: true,
		what: "WeightedQueries.AccessProb returns the weight sum without the cap that absorbs its rounding",
		edits: []edit{{"internal/core/weighted.go",
			"\t\t\tp += w.weights[k]\n\t\t}\n\t}\n\treturn math.Min(p, 1)\n",
			"\t\t\tp += w.weights[k]\n\t\t}\n\t}\n\treturn p\n"}},
		pkgs: []string{corePkg, expPkg},
	},
	// Equivalent: each clipped extent c = min(1, max+q) - max(min, q) is
	// at most 1-q, and rounding is monotone, so every factor c/(1-q) is
	// at most 1 and the cap never binds.
	{
		name: "prob-nd-uniform-uncapped", aim: "probrange", benign: true,
		what: "nd.UniformQueries.AccessProb returns the product without its cap",
		edits: []edit{{"internal/nd/model.go",
			"\treturn math.Min(p, 1)\n", "\treturn p\n"}},
		pkgs: []string{ndPkg, expPkg},
	},

	// ---- errcheck (retired: storage's TestSaveTreeAtomicCrashMatrix and
	// TestCloseFileReportsCloseError kill both rows)
	{
		name: "err-atomic-save-drops-close", aim: "errcheck",
		what: "SaveTreeAtomicWith ignores the temp file's Close (its header flush and fsync) before the rename",
		edits: []edit{{"internal/storage/tree.go",
			"\tif err := fm.Close(); err != nil { // flushes the header, then syncs\n\t\t_ = os.Remove(tmp) // the close failure is the one worth reporting\n\t\treturn err\n\t}\n",
			"\tfm.Close() // flushes the header, then syncs\n"}},
		pkgs: []string{storagePkg, "./cmd/rtreeload"},
	},
	{
		name: "err-filemanager-close-drops-error", aim: "errcheck", rare: true,
		what: "FileManager.Close drops the os.File Close error on its success path",
		edits: []edit{{"internal/storage/disk.go",
			"\t\treturn err\n\t}\n\treturn fm.f.Close()\n", "\t\treturn err\n\t}\n\tfm.f.Close()\n\treturn nil\n"}},
		pkgs: []string{storagePkg, "./cmd/rtreeload"},
	},
}

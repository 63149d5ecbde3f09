package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
	"rtreebuf/internal/storage"
)

const (
	fanOut   = 100
	pageSize = storage.DefaultPageSize
	// bufferPolicyLabel labels the pool's obs counters in the traced run.
	bufferPolicyLabel = "bench"
)

var policyLabel = obs.L("policy", bufferPolicyLabel)

// checkpointPolicy is the stated flush policy of write_wal: the log is
// truncated every 64 commits, so a run sees many checkpoint cycles.
var checkpointPolicy = storage.CheckpointPolicy{EveryBatches: 64, MaxLogBlocks: 4096}

// setupTimes splits one set-up by layer.
type setupTimes struct {
	total, datagen, pack, save, open time.Duration
}

// env is everything set-up leaves behind for a workload.
type env struct {
	dir    string // temporary directory under cfg.dir; "" on MemoryManager
	items  []rtree.Item
	levels [][]geom.Rect // node MBRs of the packed tree, root first: the model's input
	pages  int

	file, wal storage.DiskManager // raw devices, beneath every wrapper
	filePath  string
	walPath   string
	spare     storage.DiskManager // second copy of the saved tree, for the durability check
	sparePath string
	primed    rtree.Item // the insert set-up made on a WAL tree
	st        *stack
}

// stack is the opened program: PagedTree over pool over ResilientManager
// over the page file, plus the log device on a WAL tree.
type stack struct {
	pt  *storage.PagedTree
	res *storage.ResilientManager
	reg *obs.Registry // storage counters on WAL trees; pool counters too when traced

	disk, outer, walDev *timedDM // traced run only
}

func newDevice(cfg config, dir, name string, size int) (storage.DiskManager, string, error) {
	if cfg.memory {
		m, err := storage.NewMemoryManager(size)
		return m, "", err
	}
	path := filepath.Join(dir, name)
	f, err := storage.CreateFile(path, size)
	return f, path, err
}

// reopenDevice closes a file device and opens it again from its path, so
// that what follows sees only what reached the file. A MemoryManager has
// no second handle and is returned as is.
func reopenDevice(dev storage.DiskManager, path string) (storage.DiskManager, error) {
	if path == "" {
		return dev, nil
	}
	if err := dev.Close(); err != nil {
		return nil, err
	}
	return storage.OpenFile(path)
}

// setUp generates the data set, packs it, saves it and opens the stack
// the workload asks for. Everything the program does before the first
// timed operation happens here, so that work moved into set-up shows.
func setUp(cfg config, sp spec, tr *tracer) (*env, setupTimes, error) {
	var t setupTimes
	e := &env{}
	start := time.Now()
	e.items = datagen.Items(datagen.TIGERLike(sp.items, cfg.seed))
	t.datagen = time.Since(start)

	mark := time.Now()
	tree, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: fanOut}, e.items)
	if err != nil {
		return nil, t, err
	}
	e.levels = tree.Levels()
	e.pages = tree.NodeCount()
	t.pack = time.Since(mark)
	if !sp.storage {
		t.total = time.Since(start)
		return e, t, nil
	}

	if !cfg.memory {
		if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
			return nil, t, err
		}
		if e.dir, err = os.MkdirTemp(cfg.dir, sp.name+"-*"); err != nil {
			return nil, t, err
		}
	}
	mark = time.Now()
	if e.file, e.filePath, err = newDevice(cfg, e.dir, "tree.db", pageSize); err != nil {
		e.close()
		return nil, t, err
	}
	if err := storage.SaveTree(e.file, tree); err != nil {
		e.close()
		return nil, t, err
	}
	t.save = time.Since(mark)

	mark = time.Now()
	if sp.wal {
		if e.wal, e.walPath, err = newDevice(cfg, e.dir, "tree.wal", pageSize+storage.WALFrameOverhead); err != nil {
			e.close()
			return nil, t, err
		}
	}
	if e.st, err = openStack(sp, e.file, e.wal, tr); err != nil {
		e.close()
		return nil, t, err
	}
	if sp.wal {
		// The first update restamps every page out of level order, once;
		// that belongs to set-up, not to a percentile.
		e.primed = rtree.Item{Rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.5 + sp.insertSide, MaxY: 0.5 + sp.insertSide}, ID: int64(sp.items)}
		if err := e.st.pt.Insert(e.primed); err != nil {
			e.close()
			return nil, t, fmt.Errorf("priming insert: %w", err)
		}
	}
	t.open = time.Since(mark)
	t.total = time.Since(start)

	if sp.wal && tr != nil {
		if e.spare, e.sparePath, err = newDevice(cfg, e.dir, "spare.db", pageSize); err != nil {
			e.close()
			return nil, t, err
		}
		if err := storage.SaveTree(e.spare, tree); err != nil {
			e.close()
			return nil, t, err
		}
	}
	return e, t, nil
}

// setUpMedian sets up reps times and keeps the last; the medians of the
// repetitions are what is reported, because one set-up is too short to
// be steady.
func setUpMedian(cfg config, sp spec, tr *tracer, reps int) (*env, setupTimes, error) {
	var e *env
	var all []setupTimes
	for i := 0; i < reps; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		var t setupTimes
		var err error
		if e, t, err = setUp(cfg, sp, tr); err != nil {
			return nil, t, err
		}
		all = append(all, t)
	}
	med := func(pick func(setupTimes) time.Duration) time.Duration {
		ds := make([]time.Duration, len(all))
		for i, t := range all {
			ds[i] = pick(t)
		}
		return medianDuration(ds)
	}
	return e, setupTimes{
		total:   med(func(t setupTimes) time.Duration { return t.total }),
		datagen: med(func(t setupTimes) time.Duration { return t.datagen }),
		pack:    med(func(t setupTimes) time.Duration { return t.pack }),
		save:    med(func(t setupTimes) time.Duration { return t.save }),
		open:    med(func(t setupTimes) time.Duration { return t.open }),
	}, nil
}

// dropItems releases the item slice (48 MB at full scale) before timing
// starts: a large live heap lengthens the collector's cycles and shows up
// in the tail latencies of a program that does not own it.
func (e *env) dropItems() {
	e.items = nil
	runtime.GC()
}

// close releases the devices and removes the temporary directory.
func (e *env) close() {
	for _, d := range []storage.DiskManager{e.file, e.wal, e.spare} {
		if d != nil {
			_ = d.Close() // the files are about to be removed
		}
	}
	e.file, e.wal, e.spare = nil, nil, nil
	if e.dir != "" {
		_ = os.RemoveAll(e.dir) // best effort; bench/out is ignored by git
	}
}

var (
	diskSpans      = map[ioKind]uint8{ioRead: spanDiskRead, ioWrite: spanDiskWrite, ioMeta: spanDiskMeta, ioSync: spanDiskSync}
	resilientSpans = map[ioKind]uint8{ioRead: spanResilientRead}
	walSpans       = map[ioKind]uint8{ioWrite: spanWALWrite, ioMeta: spanWALMeta, ioSync: spanWALSync}
)

// openStack opens the tree the way the workload names. With a tracer the
// page file gets a wrapper on each side of the ResilientManager and the
// log device one of its own; without, the program runs bare.
func openStack(sp spec, file, wal storage.DiskManager, tr *tracer) (*stack, error) {
	st := &stack{}
	dm := file
	if tr != nil {
		st.disk = newTimedDM(file, tr, diskSpans)
		dm = st.disk
	}
	st.res = storage.NewResilientManager(dm)
	dm = st.res
	if tr != nil {
		st.outer = newTimedDM(st.res, tr, resilientSpans)
		dm = st.outer
	}
	if !sp.wal {
		pt, err := storage.OpenPagedTreeWith(dm, sp.buffer, sp.policy, sp.shards)
		st.pt = pt
		return st, err
	}
	// WriteMeta only fsyncs when pages are dirty, which no wrapper can
	// see from outside; the existing public counters are exact.
	st.reg = obs.NewRegistry()
	m := storage.NewMetrics(st.reg)
	storage.SetManagerMetrics(file, m)
	storage.SetManagerMetrics(wal, m)
	if tr != nil {
		st.walDev = newTimedDM(wal, tr, walSpans)
		wal = st.walDev
	}
	pt, _, err := storage.OpenPagedTreeWAL(dm, wal, sp.buffer)
	if err != nil {
		return nil, err
	}
	pt.WAL().SetMetrics(m)
	pt.SetCheckpointPolicy(checkpointPolicy)
	if tr != nil {
		pt.Pool().SetMetrics(buffer.NewMetrics(st.reg, bufferPolicyLabel))
	}
	st.pt = pt
	return st, nil
}

func (st *stack) counter(name string, labels ...obs.Label) float64 {
	return float64(st.reg.Counter(name, labels...).Value())
}

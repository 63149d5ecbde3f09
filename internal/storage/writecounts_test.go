package storage

import (
	"math/rand"
	"path/filepath"
	"testing"

	"rtreebuf/internal/obs"
	"rtreebuf/internal/rtree"
)

// countingDevice counts what the write path asks of a device: page
// writes, catalog writes, durability barriers, and the bytes written.
type countingDevice struct {
	DiskManager
	pageWrites, metaWrites, syncs, bytes int
}

func (c *countingDevice) WritePage(page int, data []byte) error {
	c.pageWrites++
	c.bytes += len(data)
	return c.DiskManager.WritePage(page, data)
}

func (c *countingDevice) WriteMeta(meta []byte) error {
	c.metaWrites++
	c.bytes += len(meta)
	return c.DiskManager.WriteMeta(meta)
}

func (c *countingDevice) Sync() error {
	c.syncs++
	return syncManager(c.DiskManager)
}

// writeCounts are a WAL tree's write-path totals over an operation
// stream. barriers counts the durability barriers the write path asks
// its devices for: every WriteMeta (the log's commit and checkpoint
// records, the page file's catalog) and every Sync. A FileManager turns
// a barrier into an fsync only when it has something to make durable
// (TestWritePathCountsExact's file arm counts those).
type writeCounts struct {
	barriers, bytesWritten, writeBacks int
}

// applyWriteStream saves a seeded tree to dm, opens it as a WAL tree over
// dm and walDev with a 16-page pool and a checkpoint every 8 batches,
// calls opened, and applies a seeded stream of ops operations: two
// inserts to one delete of a live item.
func applyWriteStream(t *testing.T, seed int64, ops int, dm, walDev DiskManager, opened func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := randomItems(rng, 200, 0)
	tree, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	tree.InsertAll(live)
	if err := SaveTree(dm, tree); err != nil {
		t.Fatal(err)
	}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 16)
	if err != nil {
		t.Fatal(err)
	}
	pt.SetCheckpointPolicy(CheckpointPolicy{EveryBatches: 8})
	opened()

	nextID := int64(len(live))
	for i := 0; i < ops; i++ {
		if rng.Intn(3) < 2 {
			it := randomItems(rng, 1, nextID)[0]
			nextID++
			if err := pt.Insert(it); err != nil {
				t.Fatal(err)
			}
			live = append(live, it)
			continue
		}
		j := rng.Intn(len(live))
		if found, err := pt.Delete(live[j]); err != nil || !found {
			t.Fatalf("delete of live item %d: found %v, err %v", live[j].ID, found, err)
		}
		live[j] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	if err := pt.CheckpointErr(); err != nil {
		t.Fatal(err)
	}
}

// runWriteStream runs applyWriteStream on counting memory devices and
// returns what the stream asked of them once the tree was open.
func runWriteStream(t *testing.T, seed int64, ops int) writeCounts {
	t.Helper()
	mem, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	memWAL, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	dm, walDev := &countingDevice{DiskManager: mem}, &countingDevice{DiskManager: memWAL}
	applyWriteStream(t, seed, ops, dm, walDev, func() {
		*dm, *walDev = countingDevice{DiskManager: mem}, countingDevice{DiskManager: memWAL}
	})
	return writeCounts{
		barriers:     dm.metaWrites + dm.syncs + walDev.metaWrites + walDev.syncs,
		bytesWritten: dm.bytes + walDev.bytes,
		writeBacks:   dm.pageWrites,
	}
}

// fileWriteStreamFsyncs runs applyWriteStream on a page file and a log
// file in a temporary directory and returns the fsyncs the two
// FileManagers issued once the tree was open, from the storage Metrics
// counter.
func fileWriteStreamFsyncs(t *testing.T, seed int64, ops int) int {
	t.Helper()
	dir := t.TempDir()
	fm, err := CreateFile(filepath.Join(dir, "tree.rt"), updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	walFM, err := CreateFile(WALPath(filepath.Join(dir, "tree.rt")), updateTestPageSize+WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	applyWriteStream(t, seed, ops, fm, walFM, func() {
		m := NewMetrics(reg)
		SetManagerMetrics(fm, m)
		SetManagerMetrics(walFM, m)
	})
	fsyncs := int(obsValue(t, reg, "storage_fsyncs_total"))
	for _, f := range []*FileManager{fm, walFM} {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return fsyncs
}

// TestWritePathCountsExact pins what a WAL-committed operation costs the
// devices, as exact totals over one seeded stream: barriers asked for,
// bytes written (page file and log) and pool write-backs. They are
// deterministic, so any change to the write path (a deferred sync, a
// group commit, a page written twice) moves them, and the diff of this
// table is that change's effect. Update the totals in the same change,
// saying why they moved. A short arm on real files pins the fsyncs
// those barriers cost.
func TestWritePathCountsExact(t *testing.T) {
	const ops = 300
	// 1,011 barriers: each operation commits one batch (the log's commit
	// record, the sync that makes it durable, then the page file's
	// catalog), and each of the 37 checkpoints syncs the page file, writes
	// the log's watermark and syncs it before the log is overwritten.
	want := writeCounts{barriers: 3*ops + 3*(ops/8), bytesWritten: 814120, writeBacks: 585}
	got := runWriteStream(t, 601, ops)
	if again := runWriteStream(t, 601, ops); again != got {
		t.Fatalf("the same stream counted %+v, then %+v", got, again)
	}
	perOp := func(n int) float64 { return float64(n) / ops }
	t.Logf("per op: barriers %.3f, bytes written %.1f, write-backs %.3f",
		perOp(got.barriers), perOp(got.bytesWritten), perOp(got.writeBacks))
	if got != want {
		t.Errorf("write-path totals over %d ops = %+v, want %+v", ops, got, want)
	}

	// On FileManagers a commit's three barriers are three fsyncs: the log's
	// commit record and its page writes, the log's own sync, the page
	// file's catalog and its write-backs. A checkpoint's are two: the
	// page file's sync and the log's, while the watermark the log writes
	// between them finds no page write pending and costs none.
	const fileOps = 48
	wantFsyncs := 3*fileOps + 2*(fileOps/8)
	if got := fileWriteStreamFsyncs(t, 601, fileOps); got != wantFsyncs {
		t.Errorf("fsyncs over %d ops on files = %d, want %d (%d barriers asked for)",
			fileOps, got, wantFsyncs, runWriteStream(t, 601, fileOps).barriers)
	}
}

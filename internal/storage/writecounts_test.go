package storage

import (
	"math/rand"
	"testing"

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
// stream. fsyncs counts the durability barriers a file device turns into
// an fsync: every WriteMeta (the log's commit and checkpoint records,
// the page file's catalog, which FileManager publishes only after
// syncing the pages written before it) and every Sync.
type writeCounts struct {
	fsyncs, bytesWritten, writeBacks int
}

// runWriteStream saves a seeded tree to memory devices, opens it as a
// WAL tree with a 16-page pool and a checkpoint every 8 batches, and
// applies a seeded stream of ops operations: two inserts to one delete
// of a live item.
func runWriteStream(t *testing.T, seed int64, ops int) writeCounts {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := randomItems(rng, 200, 0)
	tree, err := rtree.New(updateTestParams())
	if err != nil {
		t.Fatal(err)
	}
	tree.InsertAll(live)
	mem, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(mem, tree); err != nil {
		t.Fatal(err)
	}
	memWAL, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	dm, walDev := &countingDevice{DiskManager: mem}, &countingDevice{DiskManager: memWAL}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 16)
	if err != nil {
		t.Fatal(err)
	}
	pt.SetCheckpointPolicy(CheckpointPolicy{EveryBatches: 8})
	*dm, *walDev = countingDevice{DiskManager: mem}, countingDevice{DiskManager: memWAL}

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
	return writeCounts{
		fsyncs:       dm.metaWrites + dm.syncs + walDev.metaWrites + walDev.syncs,
		bytesWritten: dm.bytes + walDev.bytes,
		writeBacks:   dm.pageWrites,
	}
}

// TestWritePathCountsExact pins what a WAL-committed operation costs the
// devices, as exact totals over one seeded stream: fsyncs, bytes
// written (page file and log) and pool write-backs. They are
// deterministic, so any change to the write path (a deferred sync, a
// group commit, a page written twice) moves them, and the diff of this
// table is that change's effect. Update the totals in the same change,
// saying why they moved.
func TestWritePathCountsExact(t *testing.T) {
	const ops = 300
	// 674 fsyncs: each operation commits one batch (the log's commit
	// record, then the page file's catalog), and each of the 37
	// checkpoints syncs the page file and writes the log's watermark.
	want := writeCounts{fsyncs: 2*ops + 2*(ops/8), bytesWritten: 814120, writeBacks: 585}
	got := runWriteStream(t, 601, ops)
	if again := runWriteStream(t, 601, ops); again != got {
		t.Fatalf("the same stream counted %+v, then %+v", got, again)
	}
	perOp := func(n int) float64 { return float64(n) / ops }
	t.Logf("per op: fsyncs %.3f, bytes written %.1f, write-backs %.3f",
		perOp(got.fsyncs), perOp(got.bytesWritten), perOp(got.writeBacks))
	if got != want {
		t.Errorf("write-path totals over %d ops = %+v, want %+v", ops, got, want)
	}
}

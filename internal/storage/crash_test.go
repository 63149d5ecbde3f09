package storage

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// TestSaveTreeAtomicCrashMatrix interrupts SaveTreeAtomic at every
// single write index via FaultManager crash points and reopens after
// each simulated crash: the file must always hold either the complete
// old tree or the complete new one, never a torn mix, and the directory
// must not accumulate temp files.
func TestSaveTreeAtomicCrashMatrix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.rt")
	old := buildTestTree(t, 300, 12)
	replacement := buildTestTree(t, 500, 12)
	if old.Len() == replacement.Len() {
		t.Fatal("fixture trees must be distinguishable")
	}
	if err := SaveTreeAtomic(path, DefaultPageSize, old); err != nil {
		t.Fatal(err)
	}

	totalWrites := replacement.NodeCount() + 1 // node pages + catalog
	for i := 0; i < totalWrites; i++ {
		err := SaveTreeAtomicWith(path, DefaultPageSize, replacement,
			func(dm DiskManager) DiskManager {
				return NewFaultManager(dm, uint64(i)).CrashAfterWrites(i)
			})
		if err == nil {
			t.Fatalf("crash at write %d: save reported success", i)
		}
		assertDirHasOnly(t, dir, "tree.rt")
		got := reopenAndLoad(t, path)
		if got.Len() != old.Len() {
			t.Fatalf("crash at write %d: reopened tree has %d items, want the old tree's %d",
				i, got.Len(), old.Len())
		}
		if err := got.CheckInvariants(); err != nil {
			t.Fatalf("crash at write %d: reopened tree invalid: %v", i, err)
		}
	}

	// Every write lands, but the temp file's final Close fails (its
	// fsync finds the file closed underneath it): the save must report
	// it and must not publish a file whose durability nobody confirmed.
	err := SaveTreeAtomicWith(path, DefaultPageSize, replacement,
		func(dm DiskManager) DiskManager { return &closeAfterMeta{dm.(*FileManager)} })
	if err == nil {
		t.Fatal("failed final close: save reported success")
	}
	assertDirHasOnly(t, dir, "tree.rt")
	if got := reopenAndLoad(t, path); got.Len() != old.Len() {
		t.Fatalf("failed final close: reopened tree has %d items, want the old tree's %d", got.Len(), old.Len())
	}

	// No crash: the new tree lands completely.
	if err := SaveTreeAtomic(path, DefaultPageSize, replacement); err != nil {
		t.Fatal(err)
	}
	got := reopenAndLoad(t, path)
	if got.Len() != replacement.Len() {
		t.Fatalf("completed save: %d items, want %d", got.Len(), replacement.Len())
	}
	assertDirHasOnly(t, dir, "tree.rt")
}

// TestSaveTreeLegacyCrashMatrix does the same for the non-atomic path
// into a fresh file: after a crash at any write index, reopening must
// never panic and LoadTree must fail with a clean error (the deferred
// header means an interrupted save never advertises a catalog).
func TestSaveTreeLegacyCrashMatrix(t *testing.T) {
	tr := buildTestTree(t, 300, 12)
	totalWrites := tr.NodeCount() + 1
	for i := 0; i < totalWrites; i++ {
		path := filepath.Join(t.TempDir(), "fresh.rt")
		fm, err := CreateFile(path, DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		faulty := NewFaultManager(fm, uint64(i)).CrashAfterWrites(i)
		if err := SaveTree(faulty, tr); err == nil {
			t.Fatalf("crash at write %d: save reported success", i)
		}
		_ = fm.closeFile() // release the fd and views without flushing, like a dead process

		re, err := OpenFile(path)
		if err != nil {
			// A header the crash never finished is allowed to fail the
			// open — cleanly.
			continue
		}
		if _, err := LoadTree(re); err == nil {
			t.Fatalf("crash at write %d: interrupted legacy save loaded as a tree", i)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveTreeLegacyOverwriteCrashNeverPanics overwrites an existing
// tree in place with crashes at every write index: the legacy path makes
// no atomicity promise, but reopening must never panic and must either
// fail cleanly or produce a checksum-valid tree.
func TestSaveTreeLegacyOverwriteCrashNeverPanics(t *testing.T) {
	old := buildTestTree(t, 400, 12)
	replacement := buildTestTree(t, 250, 12)
	totalWrites := replacement.NodeCount() + 1
	for i := 0; i < totalWrites; i += 3 { // stride keeps the matrix fast
		path := filepath.Join(t.TempDir(), "tree.rt")
		if err := SaveTreeAtomic(path, DefaultPageSize, old); err != nil {
			t.Fatal(err)
		}
		fm, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		faulty := NewFaultManager(fm, uint64(i)).CrashAfterWrites(i)
		if err := SaveTree(faulty, replacement); err == nil {
			t.Fatalf("crash at write %d: save reported success", i)
		}
		_ = fm.closeFile()

		re, err := OpenFile(path)
		if err != nil {
			continue
		}
		if got, err := LoadTree(re); err == nil {
			if got == nil {
				t.Fatalf("crash at write %d: nil tree without error", i)
			}
			// A loaded tree decoded with valid checksums throughout; it
			// may be a stale-catalog mix, which is exactly why
			// SaveTreeAtomic exists.
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveTreeAtomicTornMetaWrite arms a torn write on the final header
// write of the temp file: the ack lies, the header is half old half new,
// and the atomic path must still never expose a broken file at path.
func TestSaveTreeAtomicTornMetaWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tree.rt")
	tr := buildTestTree(t, 200, 12)
	// The torn write lands on a node page write (write 3), silently: the
	// save completes, but the damaged page must fail the subsequent
	// load's checksum pass — so SaveTreeAtomicWith callers that verify
	// (as rtreefsck does) catch it before trusting the file.
	err := SaveTreeAtomicWith(path, DefaultPageSize, tr, func(dm DiskManager) DiskManager {
		return NewFaultManager(dm, 11).TornWrite(3, 100)
	})
	if err != nil {
		t.Fatalf("silently torn save should ack like the lying disk did: %v", err)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if _, err := LoadTree(re); err == nil {
		t.Fatal("torn page survived load undetected")
	}
	rep := Scrub(re)
	if rep.Clean() {
		t.Fatal("scrub missed the torn page")
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Page != 2 {
		t.Fatalf("scrub report %v, want exactly page 2 (write 3)", rep.Faults)
	}
}

func reopenAndLoad(t *testing.T, path string) *rtree.Tree {
	t.Helper()
	fm, err := OpenFile(path)
	if err != nil {
		t.Fatalf("reopen after crash failed: %v", err)
	}
	defer func() { _ = fm.Close() }()
	tr, err := LoadTree(fm)
	if err != nil {
		t.Fatalf("load after crash failed: %v", err)
	}
	return tr
}

func assertDirHasOnly(t *testing.T, dir string, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	for _, e := range entries {
		if !want[e.Name()] {
			t.Fatalf("stray file %q left in %s", e.Name(), dir)
		}
	}
}

// closeAfterMeta closes the file under a FileManager once the catalog
// write has landed, so every write of a save succeeds and only the
// final Close (its fsync and the file's own close) can fail.
type closeAfterMeta struct{ *FileManager }

func (c *closeAfterMeta) WriteMeta(meta []byte) error {
	if err := c.FileManager.WriteMeta(meta); err != nil {
		return err
	}
	return c.f.Close()
}

// TestCloseFileReportsCloseError: the file's own close error is what
// closeFile returns. Close reaches it on every path (after a failed sync
// as well), so a dropped error here is a dropped error at every Close.
func TestCloseFileReportsCloseError(t *testing.T) {
	fm, err := CreateFile(filepath.Join(t.TempDir(), "closed.rt"), DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.WritePage(0, make([]byte, DefaultPageSize)); err != nil {
		t.Fatal(err)
	}
	if err := fm.f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fm.closeFile(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("closeFile of an already closed file = %v, want os.ErrClosed", err)
	}
}

// TestSaveTreeAtomicRoundTrip checks the happy path end to end,
// including that queries agree after the atomic save.
func TestSaveTreeAtomicRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.rt")
	tr := buildTestTree(t, 600, 16)
	if err := SaveTreeAtomic(path, DefaultPageSize, tr); err != nil {
		t.Fatal(err)
	}
	fm, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fm.Close() }()
	got, err := LoadTree(fm)
	if err != nil {
		t.Fatal(err)
	}
	q := geom.RectAround(geom.Point{X: 0.4, Y: 0.6}, 0.2, 0.2)
	if !sameIDs(got.SearchWindow(q), tr.SearchWindow(q)) {
		t.Fatal("search mismatch after atomic save")
	}
}

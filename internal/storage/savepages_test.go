package storage

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"rtreebuf/internal/datagen"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

// pageFileHashPR22 is the SHA-256 of the page file SaveTreeAtomic wrote at
// the commit before the bulk-load pipeline (PR 22) for hashTree's input.
const pageFileHashPR22 = "fcc4931e5d1e6157f1e98331ab41d76ea3d30d8865fdfe026b07cadcccd8a7d9"

// hashTree bulk-loads the seeded data set the hash is pinned to and saves
// it: 100k items, 1,011 pages, enough for every stage to go parallel.
func hashTree(t *testing.T, path string) {
	t.Helper()
	items := datagen.Items(datagen.TIGERLike(100_000, 7))
	tr, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 100}, items)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTreeAtomic(path, DefaultPageSize, tr); err != nil {
		t.Fatal(err)
	}
}

// The whole pipeline — keys, sort, node build, encode, write — leaves the
// same bytes on disk whatever the number of processors, and the bytes the
// serial code before it left.
func TestPageFileIdenticalAcrossProcs(t *testing.T) {
	for _, procs := range []int{1, 2, 8} {
		path := filepath.Join(t.TempDir(), "tree.rt")
		prev := runtime.GOMAXPROCS(procs)
		hashTree(t, path)
		runtime.GOMAXPROCS(prev)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != pageFileHashPR22 {
			t.Errorf("GOMAXPROCS=%d: page file SHA-256 %s, want %s", procs, got, pageFileHashPR22)
		}
	}
}

// writeLog records every WritePage a save attempts, bytes included.
type writeLog struct {
	DiskManager
	log []string
}

func (w *writeLog) WritePage(page int, data []byte) error {
	w.log = append(w.log, fmt.Sprintf("%d:%x", page, sha256.Sum256(data)))
	return w.DiskManager.WritePage(page, data)
}

// saveTreeSerial is SaveTree as it was before the pipeline — export every
// node, then encode and write one after the other, then the catalog: the
// oracle for what a device sees and for which error comes back.
func saveTreeSerial(dm DiskManager, t *rtree.Tree) error {
	for _, nd := range t.ExportNodes() {
		page, err := EncodeNode(nd, dm.PageSize())
		if err != nil {
			return err
		}
		if err := dm.WritePage(nd.Page, page); err != nil {
			return err
		}
	}
	return dm.WriteMeta(encodeMeta(TreeMeta{
		MaxEntries: t.Params().MaxEntries,
		MinEntries: t.Params().MinEntries,
		Split:      t.Params().Split,
		Items:      t.Len(),
		Levels:     t.NodesPerLevel(),
	}))
}

// A SaveTreeAtomicWith interrupted at write i issues the same writes
// before it, in the same order with the same bytes, and returns the same
// error, as the serial loop — at batch boundaries, inside batches, on the
// last page, on the catalog, with one processor or many.
func TestSaveTreeAtomicFaultsMatchSerialLoop(t *testing.T) {
	tr := buildTestTree(t, 3000, 8)
	pages := tr.NodeCount()
	if pages < 4*saveBatchPages {
		t.Fatalf("fixture has %d pages, too few to fill the encoders' window", pages)
	}
	faulty := func(dm DiskManager, crashAt int) *writeLog {
		return &writeLog{DiskManager: NewFaultManager(dm, 1).CrashAfterWrites(crashAt)}
	}
	crashPoints := []int{0, 1, saveBatchPages - 1, saveBatchPages, saveBatchPages + 1,
		2*saveBatchPages - 1, 2 * saveBatchPages, 3*saveBatchPages + 5, pages - 1, pages, pages + 1}
	for _, crashAt := range crashPoints {
		mem, err := NewMemoryManager(DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		want := faulty(mem, crashAt)
		wantErr := saveTreeSerial(want, tr)
		if (wantErr == nil) != (crashAt > pages) {
			t.Fatalf("crash at %d of %d+1 writes: serial loop returned %v", crashAt, pages, wantErr)
		}
		for _, procs := range []int{1, 2, 8} {
			var got *writeLog
			prev := runtime.GOMAXPROCS(procs)
			gotErr := SaveTreeAtomicWith(filepath.Join(t.TempDir(), "tree.rt"), DefaultPageSize, tr,
				func(dm DiskManager) DiskManager {
					got = faulty(dm, crashAt)
					return got
				})
			runtime.GOMAXPROCS(prev)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("crash at write %d, GOMAXPROCS=%d: error %v, serial loop's %v", crashAt, procs, gotErr, wantErr)
			}
			if !slices.Equal(got.log, want.log) {
				t.Errorf("crash at write %d, GOMAXPROCS=%d: the %d page writes differ from the serial loop's %d", crashAt, procs, len(got.log), len(want.log))
			}
		}
	}
}

// BenchmarkSaveTree saves the benchmark's tree — 1M items, 10,101 pages —
// to a page file, as set-up does.
func BenchmarkSaveTree(b *testing.B) {
	items := datagen.Items(datagen.TIGERLike(1_000_000, 1))
	tr, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 100}, items)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "tree.rt")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fm, err := CreateFile(path, DefaultPageSize)
		if err != nil {
			b.Fatal(err)
		}
		if err := SaveTree(fm, tr); err != nil {
			b.Fatal(err)
		}
		if err := fm.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

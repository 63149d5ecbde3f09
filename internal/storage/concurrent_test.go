package storage

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"rtreebuf/internal/buffer"
)

// The sharded buffer pool issues ReadPage calls and dirty-page
// write-backs from many goroutines with no lock held, so the disk
// managers must tolerate concurrent page I/O — including writes that
// extend the page space — without racing on their internal state
// (REVIEW.md: FileManager's header flags and MemoryManager's page-table
// growth were unsynchronized). Run under -race in CI.
func TestManagersConcurrentPageIO(t *testing.T) {
	const (
		pageSize   = 256
		seedPages  = 32
		writers    = 4
		extendEach = 16
		readers    = 4
		readOps    = 400
	)
	pattern := func(page int) []byte {
		b := make([]byte, pageSize)
		for i := range b {
			b[i] = byte(page) ^ byte(i*3)
		}
		return b
	}
	managers := map[string]func(t *testing.T) DiskManager{
		"memory": func(t *testing.T) DiskManager {
			m, err := NewMemoryManager(pageSize)
			if err != nil {
				t.Fatal(err)
			}
			return m
		},
		"file": func(t *testing.T) DiskManager {
			fm, err := CreateFile(filepath.Join(t.TempDir(), "conc.rtree"), pageSize)
			if err != nil {
				t.Fatal(err)
			}
			return fm
		},
	}
	for name, mk := range managers {
		t.Run(name, func(t *testing.T) {
			dm := mk(t)
			defer dm.Close()
			for pg := 0; pg < seedPages; pg++ {
				if err := dm.WritePage(pg, pattern(pg)); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, writers+readers+2)
			// Writers overwrite their own seed page and extend the page
			// space with disjoint ranges, racing each other on the
			// page-count state.
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < extendEach; i++ {
						for _, pg := range []int{w, seedPages + w*extendEach + i} {
							if err := dm.WritePage(pg, pattern(pg)); err != nil {
								errs <- err
								return
							}
						}
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					buf := make([]byte, pageSize)
					for i := 0; i < readOps; i++ {
						// Stable seed pages only: concurrent same-page
						// read/write is outside the managers' contract.
						pg := writers + (r*readOps+i)%(seedPages-writers)
						if err := dm.ReadPage(pg, buf); err != nil {
							errs <- err
							return
						}
						if !bytes.Equal(buf, pattern(pg)) {
							errs <- fmt.Errorf("page %d torn read", pg)
							return
						}
					}
				}(r)
			}
			// A FileManager flush concurrent with extending writes is the
			// WAL-checkpoint-during-write-back scenario; it must neither
			// race nor let the header get ahead of synced data.
			if fm, ok := dm.(*FileManager); ok {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						if err := fm.Flush(); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			// A Stats reader runs beside the I/O, so the counters are read
			// while the writers and readers bump them: -race reports any
			// counter that is not read and written atomically.
			stop := make(chan struct{})
			var statsDone sync.WaitGroup
			statsDone.Add(1)
			go func() {
				defer statsDone.Done()
				var last IOStats
				for {
					s := dm.Stats()
					if s.Reads < last.Reads || s.Writes < last.Writes {
						errs <- fmt.Errorf("Stats went backwards: %+v after %+v", s, last)
						return
					}
					last = s
					select {
					case <-stop:
						return
					default:
						runtime.Gosched()
					}
				}
			}()
			wg.Wait()
			close(stop)
			statsDone.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			want := IOStats{Reads: readers * readOps, Writes: seedPages + 2*writers*extendEach}
			if got := dm.Stats(); got != want {
				t.Errorf("Stats = %+v after the concurrent I/O, want %+v (a counted transfer was lost)", got, want)
			}
			wantPages := seedPages + writers*extendEach
			if got := dm.NumPages(); got != wantPages {
				t.Errorf("NumPages = %d, want %d (a concurrent extension was lost)", got, wantPages)
			}
			buf := make([]byte, pageSize)
			for pg := 0; pg < wantPages; pg++ {
				if err := dm.ReadPage(pg, buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(buf, pattern(pg)) {
					t.Fatalf("page %d contents wrong after concurrent writes", pg)
				}
			}
			// The file manager must also survive a reopen: the deferred
			// header picks up the full concurrent extent on Close.
			if fm, ok := dm.(*FileManager); ok {
				path := fm.f.Name()
				if err := fm.Close(); err != nil {
					t.Fatal(err)
				}
				re, err := OpenFile(path)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if got := re.NumPages(); got != wantPages {
					t.Errorf("reopened NumPages = %d, want %d", got, wantPages)
				}
				for pg := 0; pg < wantPages; pg++ {
					if err := re.ReadPage(pg, buf); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(buf, pattern(pg)) {
						t.Fatalf("page %d contents wrong after reopen", pg)
					}
				}
			}
		})
	}

	// The mapped read path under remaps: ShardedPool readers fault the
	// tree's pages while one goroutine grows the file tenfold and calls
	// WriteMeta every 64 pages, which maps afresh each time the pages
	// outgrow the view.
	t.Run("file-remap", func(t *testing.T) {
		const remapPageSize = 1024
		fm, err := CreateFile(filepath.Join(t.TempDir(), "remap.rtree"), remapPageSize)
		if err != nil {
			t.Fatal(err)
		}
		defer fm.Close()
		if err := SaveTree(fm, buildTestTree(t, 2000, 12)); err != nil {
			t.Fatal(err)
		}
		treePages := fm.NumPages()
		want := make([][]byte, treePages)
		for pg := range want {
			want[pg] = make([]byte, remapPageSize)
			if _, err := fm.f.ReadAt(want[pg], fm.pageOffset(pg)); err != nil {
				t.Fatal(err)
			}
		}
		meta, err := fm.ReadMeta()
		if err != nil {
			t.Fatal(err)
		}
		pool := buffer.NewShardedPool(dmSource{fm}, 16, treePages, 4)
		var wg sync.WaitGroup
		var grown atomic.Bool
		errs := make(chan error, readers+1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer grown.Store(true)
			for pg := treePages; pg < 10*treePages; pg++ {
				if err := fm.WritePage(pg, bytes.Repeat([]byte{byte(pg)}, remapPageSize)); err != nil {
					errs <- err
					return
				}
				if pg%64 == 0 {
					if err := fm.WriteMeta(meta); err != nil {
						errs <- err
						return
					}
				}
			}
		}()
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(uint64(r), 17))
				for i := 0; i < readOps || !grown.Load(); i++ {
					pg := rng.IntN(treePages)
					var same bool
					if _, err := pool.View(pg, func(frame []byte, _ bool) { same = bytes.Equal(frame, want[pg]) }); err != nil {
						errs <- err
						return
					}
					if !same {
						errs <- fmt.Errorf("page %d read wrong during remaps", pg)
						return
					}
				}
			}(r)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if platformMaps() && len(fm.views) < 3 {
			t.Errorf("%d views over a file grown tenfold: the write side did not remap", len(fm.views))
		}
	})
}

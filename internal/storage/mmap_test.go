package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtreebuf/internal/geom"
)

// platformMaps reports whether FileManager reads through a mapping on
// this platform. Where it does not, the tests below still run, and every
// read takes pread.
func platformMaps() bool {
	_, err := mapFile(nil, 0)
	return !errors.Is(err, errors.ErrUnsupported)
}

// viewLen is how many bytes of the file the current view covers.
func viewLen(fm *FileManager) int64 {
	if v := fm.view.Load(); v != nil {
		return int64(len(*v))
	}
	return 0
}

// saveBenchFile saves benchTree(n) to a fresh page file and returns the
// open manager and its path.
func saveBenchFile(tb testing.TB, n int) (*FileManager, string) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "tree.rt")
	fm, err := CreateFile(path, DefaultPageSize)
	if err != nil {
		tb.Fatal(err)
	}
	if err := SaveTree(fm, benchTree(tb, n)); err != nil {
		tb.Fatal(err)
	}
	return fm, path
}

// TestMappedReadsMatchPread: every page ReadPage returns is, byte for
// byte, what an independent pread of the file returns, on every path a
// read can take: inside the view SaveTree's WriteMeta made, past it
// before the write side remaps, inside the remapped view, after an
// in-place overwrite, and after a reopen.
func TestMappedReadsMatchPread(t *testing.T) {
	items, pages := 1_000_000, 10_101
	if raceEnabled {
		items, pages = 100_000, 1_011 // the race detector multiplies the bulk load's memory
	}
	fm, path := saveBenchFile(t, items)
	defer fm.Close()
	raw, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	got, want := make([]byte, DefaultPageSize), make([]byte, DefaultPageSize)
	check := func(fm *FileManager, what string) {
		t.Helper()
		for pg := 0; pg < fm.NumPages(); pg++ {
			if err := fm.ReadPage(pg, got); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if _, err := raw.ReadAt(want, fm.pageOffset(pg)); err != nil {
				t.Fatalf("%s: pread of page %d: %v", what, pg, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: page %d differs from pread", what, pg)
			}
		}
	}
	maps := platformMaps()
	if fm.NumPages() != pages {
		t.Fatalf("saved %d pages, want %d", fm.NumPages(), pages)
	}
	if maps && viewLen(fm) < fm.pageOffset(pages) {
		t.Fatalf("the view covers %d bytes of a %d-page file", viewLen(fm), pages)
	}
	check(fm, "saved")

	// Three pages just past the view: pread serves them until WriteMeta
	// maps afresh.
	old := fm.view.Load()
	first := max(int(viewLen(fm)/DefaultPageSize)-1, pages)
	grown := make([][]byte, 3)
	for i := range grown {
		grown[i] = bytes.Repeat([]byte{byte(0xA0 + i)}, DefaultPageSize)
		if err := fm.WritePage(first+i, grown[i]); err != nil {
			t.Fatal(err)
		}
	}
	if viewLen(fm) >= fm.pageOffset(first+1) {
		t.Fatalf("page %d lies inside the view before any remap", first)
	}
	check(fm, "grown past the view")
	meta, err := fm.ReadMeta()
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.WriteMeta(meta); err != nil {
		t.Fatal(err)
	}
	if maps && viewLen(fm) < fm.pageOffset(fm.NumPages()) {
		t.Fatalf("WriteMeta left a %d-byte view over %d pages", viewLen(fm), fm.NumPages())
	}
	check(fm, "remapped")
	// A reader that loaded the replaced view before the remap may still be
	// copying from it, so it stays mapped until Close.
	if old != nil {
		if err := copyView(got, (*old)[fm.pageOffset(0):]); err != nil {
			t.Fatalf("the replaced view no longer reads: %v", err)
		}
	}
	for i, w := range grown {
		if err := fm.ReadPage(first+i, got); err != nil || !bytes.Equal(got, w) {
			t.Fatalf("grown page %d: err %v, bytes equal %t", first+i, err, bytes.Equal(got, w))
		}
	}

	// A pwrite in place is visible to the next mapped read.
	over := bytes.Repeat([]byte{0x5C}, DefaultPageSize)
	if err := fm.WritePage(7, over); err != nil {
		t.Fatal(err)
	}
	if err := fm.ReadPage(7, got); err != nil || !bytes.Equal(got, over) {
		t.Fatalf("page 7 after an in-place overwrite: err %v, bytes equal %t", err, bytes.Equal(got, over))
	}

	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if maps && viewLen(re) < re.pageOffset(re.NumPages()) {
		t.Fatalf("OpenFile left a %d-byte view over %d pages", viewLen(re), re.NumPages())
	}
	check(re, "reopened")
	if err := re.ReadPage(7, got); err != nil || !bytes.Equal(got, over) {
		t.Fatalf("page 7 after the reopen: err %v, bytes equal %t", err, bytes.Equal(got, over))
	}
}

// TestMappedReadFaultIsAnError truncates the page file under an open
// manager. A read of a lost page faults inside the view; it must come
// back as that read's error, as a failed pread would, with the process
// alive, and a degraded search must list the lost pages.
func TestMappedReadFaultIsAnError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.rt")
	if err := SaveTreeAtomic(path, DefaultPageSize, buildTestTree(t, 3000, 20)); err != nil {
		t.Fatal(err)
	}
	fm, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fm.Close()
	pt, err := OpenPagedTree(fm, 8)
	if err != nil {
		t.Fatal(err)
	}
	n := fm.NumPages()
	if platformMaps() && viewLen(fm) < fm.pageOffset(n) {
		t.Fatalf("OpenFile left a %d-byte view over %d pages", viewLen(fm), n)
	}
	lost := n - 3 // leaves: pages are in level order
	if err := os.Truncate(path, fm.pageOffset(lost)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, DefaultPageSize)
	err = fm.ReadPage(lost, buf)
	if want := fmt.Sprintf("storage: reading page %d: ", lost); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("read of truncated page %d: %v, want an error starting %q", lost, err, want)
	}
	if err := fm.ReadPage(0, buf); err != nil {
		t.Fatalf("page 0 survived the truncation but does not read: %v", err)
	}
	_, rep := pt.SearchWindowDegraded(geom.UnitSquare)
	faulted := map[int]bool{}
	for _, f := range rep.Faults {
		faulted[f.Page] = true
	}
	for pg := lost; pg < n; pg++ {
		if !faulted[pg] {
			t.Errorf("the degraded search does not report lost page %d: %v", pg, rep.Faults)
		}
	}
}

// touchPages reads every page once, so the timed loop neither faults the
// view's page tables in nor reads the file from the disk.
func touchPages(b *testing.B, fm *FileManager) {
	buf := make([]byte, fm.PageSize())
	for pg := 0; pg < fm.NumPages(); pg++ {
		if err := fm.ReadPage(pg, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileManagerReadPage is one device read as read_cold pays it:
// a random page of the benchmark's 10,101-page file.
func BenchmarkFileManagerReadPage(b *testing.B) {
	benchDeviceReads(b, func(fm *FileManager) DiskManager { return fm })
}

// BenchmarkResilientReadPage is the same read through the retry layer
// the benchmark stacks over its page file.
func BenchmarkResilientReadPage(b *testing.B) {
	benchDeviceReads(b, func(fm *FileManager) DiskManager { return NewResilientManager(fm) })
}

// benchDeviceReads times dm.ReadPage of random pages of the benchmark's
// page file, dm being the file under whatever wrap stacks over it.
func benchDeviceReads(b *testing.B, wrap func(*FileManager) DiskManager) {
	fm, _ := saveBenchFile(b, 1_000_000)
	defer fm.Close()
	touchPages(b, fm)
	dm := wrap(fm)
	rng := rand.New(rand.NewPCG(31, 32))
	pages := make([]int, 1<<16)
	for i := range pages {
		pages[i] = rng.IntN(fm.NumPages())
	}
	buf := make([]byte, DefaultPageSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dm.ReadPage(pages[i%len(pages)], buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPagedSearchWindowCold is read_cold's window query: 0.01-side
// windows over the benchmark's tree on a FileManager, through a 200-page
// LRU buffer (2 % of the tree), so most node visits fault.
func BenchmarkPagedSearchWindowCold(b *testing.B) {
	fm, _ := saveBenchFile(b, 1_000_000)
	defer fm.Close()
	touchPages(b, fm)
	pt, err := OpenPagedTree(fm, 200)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(33, 34))
	window := func() geom.Rect {
		return geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 0.01, 0.01)
	}
	for i := 0; i < 1000; i++ { // fill the buffer
		if _, err := pt.SearchWindow(window()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := pt.SearchWindow(window())
		if err != nil {
			b.Fatal(err)
		}
		benchSink += len(got)
	}
}

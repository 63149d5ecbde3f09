package storage

import (
	"encoding/binary"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

func randItems(rng *rand.Rand, n int) []rtree.Item {
	out := make([]rtree.Item, n)
	for i := range out {
		c := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		out[i] = rtree.Item{
			Rect: geom.RectAround(c, rng.Float64()*0.02, rng.Float64()*0.02).Clamp(geom.UnitSquare),
			ID:   int64(i),
		}
	}
	return out
}

func buildTestTree(t *testing.T, n, capacity int) *rtree.Tree {
	t.Helper()
	rng := rand.New(rand.NewPCG(401, 402))
	tr := rtree.MustNew(rtree.Params{MaxEntries: capacity})
	tr.InsertAll(randItems(rng, n))
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNodeCapacity(t *testing.T) {
	if got := NodeCapacity(DefaultPageSize); got != (4096-8)/40 {
		t.Errorf("NodeCapacity(4096) = %d", got)
	}
	if NodeCapacity(MinPageSize) != 1 {
		t.Errorf("NodeCapacity(min) = %d", NodeCapacity(MinPageSize))
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr := buildTestTree(t, 500, 20)
	for _, nd := range tr.ExportNodes() {
		buf, err := EncodeNode(nd, DefaultPageSize)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) != DefaultPageSize {
			t.Fatalf("page size %d", len(buf))
		}
		got, err := DecodeNode(buf, nd.Page)
		if err != nil {
			t.Fatal(err)
		}
		// A page does not carry its node's level: bytes 4:8 are reserved.
		if got.Page != nd.Page || got.Leaf != nd.Leaf || got.Level != 0 || binary.LittleEndian.Uint32(buf[4:8]) != 0 {
			t.Fatalf("header mismatch: %+v vs %+v (bytes 4:8 = %x)", got, nd, buf[4:8])
		}
		if len(got.Rects) != len(nd.Rects) {
			t.Fatalf("entry count mismatch")
		}
		for i := range nd.Rects {
			if !got.Rects[i].Equal(nd.Rects[i]) {
				t.Fatalf("rect %d mismatch", i)
			}
			if nd.Leaf && got.IDs[i] != nd.IDs[i] {
				t.Fatalf("id %d mismatch", i)
			}
			if !nd.Leaf && got.Children[i] != nd.Children[i] {
				t.Fatalf("child %d mismatch", i)
			}
		}
	}
}

// TestStoredLevelBytesIgnored: files written before bytes 4:8 became
// reserved hold each node's level there (checksummed with the rest of the
// page). Such a file must still scrub clean and load to the same tree,
// whatever those bytes say.
func TestStoredLevelBytesIgnored(t *testing.T) {
	tr := buildTestTree(t, 500, 20)
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, DefaultPageSize)
	for _, nd := range tr.ExportNodes() {
		if err := dm.ReadPage(nd.Page, buf); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(buf[4:8], uint32(nd.Level)+7) // not even the right level
		restamp(buf)
		if err := dm.WritePage(nd.Page, buf); err != nil {
			t.Fatal(err)
		}
	}
	if rep := Scrub(dm); !rep.Clean() {
		t.Fatalf("scrub not clean: %s", rep.String())
	}
	loaded, err := LoadTree(dm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded.Levels(), tr.Levels()) || !reflect.DeepEqual(loaded.Items(), tr.Items()) {
		t.Fatalf("loaded %v nodes per level, saved %v", loaded.NodesPerLevel(), tr.NodesPerLevel())
	}
}

func TestCodecNegativeIDsAndCoords(t *testing.T) {
	nd := rtree.NodeData{
		Page: 3, Level: 2, Leaf: true,
		Rects: []geom.Rect{{MinX: -1.5, MinY: -2.5, MaxX: -0.5, MaxY: 0}},
		IDs:   []int64{-42},
	}
	buf, err := EncodeNode(nd, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNode(buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.IDs[0] != -42 || !got.Rects[0].Equal(nd.Rects[0]) {
		t.Errorf("negative values mangled: %+v", got)
	}
}

func TestCodecRejectsOversizedNode(t *testing.T) {
	nd := rtree.NodeData{Leaf: true}
	for i := 0; i < 200; i++ {
		nd.Rects = append(nd.Rects, geom.UnitSquare)
		nd.IDs = append(nd.IDs, int64(i))
	}
	if _, err := EncodeNode(nd, 256); err == nil {
		t.Error("oversized node encoded")
	}
}

func TestDecodeRejectsCorruptPages(t *testing.T) {
	if _, err := DecodeNode(make([]byte, 4), 0); err == nil {
		t.Error("short page decoded")
	}
	// Claimed count beyond page end.
	buf := make([]byte, 64)
	buf[2] = 200
	if _, err := DecodeNode(buf, 0); err == nil {
		t.Error("overlong count decoded")
	}
	// Invalid rect (min > max).
	nd := rtree.NodeData{Leaf: true, Rects: []geom.Rect{{MinX: 0.1, MinY: 0, MaxX: 0.2, MaxY: 1}}, IDs: []int64{1}}
	good, _ := EncodeNode(nd, 128)
	putFloat(good[nodeHeaderSize:], 5.0) // MinX > MaxX now
	if _, err := DecodeNode(good, 0); err == nil {
		t.Error("invalid rect decoded")
	}
}

func TestChecksumDetectsBitFlips(t *testing.T) {
	tr := buildTestTree(t, 200, 10)
	nodes := tr.ExportNodes()
	buf, err := EncodeNode(nodes[0], DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeNode(buf, 0); err != nil {
		t.Fatalf("clean page rejected: %v", err)
	}
	// Any single bit flip anywhere in the meaningful region must fail.
	meaningful := nodeHeaderSize + len(nodes[0].Rects)*entrySize
	for _, pos := range []int{0, 2, 5, checksumOffset, checksumOffset + 3, nodeHeaderSize, meaningful - 1} {
		cp := append([]byte(nil), buf...)
		cp[pos] ^= 0x40
		if _, err := DecodeNode(cp, 0); err == nil {
			t.Errorf("bit flip at byte %d went undetected", pos)
		}
	}
	// Flips in the unused tail beyond the entries are not covered...
	// they are: the checksum spans the whole page, so even tail damage
	// (a symptom of a torn write) is caught.
	cp := append([]byte(nil), buf...)
	cp[len(cp)-1] ^= 0x01
	if _, err := DecodeNode(cp, 0); err == nil {
		t.Error("tail corruption went undetected")
	}
}

func TestChecksumZeroPage(t *testing.T) {
	// An all-zero (never written / torn) page must fail decode.
	if _, err := DecodeNode(make([]byte, DefaultPageSize), 0); err == nil {
		t.Error("zero page decoded")
	}
}

func testManagers(t *testing.T) map[string]DiskManager {
	t.Helper()
	mem, err := NewMemoryManager(512)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := CreateFile(filepath.Join(t.TempDir(), "pages.db"), 512)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fm.Close() })
	return map[string]DiskManager{"memory": mem, "file": fm}
}

func TestDiskManagerReadWrite(t *testing.T) {
	for name, dm := range testManagers(t) {
		t.Run(name, func(t *testing.T) {
			page := make([]byte, 512)
			for i := range page {
				page[i] = byte(i)
			}
			if err := dm.WritePage(0, page); err != nil {
				t.Fatal(err)
			}
			if err := dm.WritePage(3, page); err != nil { // gap allocation
				t.Fatal(err)
			}
			if dm.NumPages() != 4 {
				t.Errorf("NumPages = %d, want 4", dm.NumPages())
			}
			got := make([]byte, 512)
			if err := dm.ReadPage(3, got); err != nil {
				t.Fatal(err)
			}
			for i := range got {
				if got[i] != byte(i) {
					t.Fatalf("byte %d = %d", i, got[i])
				}
			}
			st := dm.Stats()
			if st.Reads != 1 || st.Writes != 2 {
				t.Errorf("stats = %+v", st)
			}
			dm.ResetStats()
			if st := dm.Stats(); st.Reads != 0 || st.Writes != 0 {
				t.Error("ResetStats failed")
			}
			// Error paths.
			if err := dm.ReadPage(99, got); err == nil {
				t.Error("read of unallocated page succeeded")
			}
			if err := dm.ReadPage(0, make([]byte, 10)); err == nil {
				t.Error("short read buffer accepted")
			}
			if err := dm.WritePage(0, make([]byte, 10)); err == nil {
				t.Error("short write accepted")
			}
			if err := dm.WritePage(-1, page); err == nil {
				t.Error("negative page write accepted")
			}
		})
	}
}

func TestDiskManagerMeta(t *testing.T) {
	for name, dm := range testManagers(t) {
		t.Run(name, func(t *testing.T) {
			meta := []byte("hello tree catalog")
			if err := dm.WriteMeta(meta); err != nil {
				t.Fatal(err)
			}
			got, err := dm.ReadMeta()
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(meta) {
				t.Errorf("meta = %q", got)
			}
			// Oversized metadata rejected.
			if err := dm.WriteMeta(make([]byte, 600)); err == nil {
				t.Error("oversized meta accepted")
			}
		})
	}
}

func TestFileManagerPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "persist.db")
	fm, err := CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 512)
	copy(page, "page zero contents")
	if err := fm.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	if err := fm.WriteMeta([]byte("catalog")); err != nil {
		t.Fatal(err)
	}
	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PageSize() != 512 || re.NumPages() != 1 {
		t.Errorf("reopened: pageSize %d numPages %d", re.PageSize(), re.NumPages())
	}
	got := make([]byte, 512)
	if err := re.ReadPage(0, got); err != nil {
		t.Fatal(err)
	}
	if string(got[:18]) != "page zero contents" {
		t.Error("page contents lost")
	}
	meta, err := re.ReadMeta()
	if err != nil || string(meta) != "catalog" {
		t.Errorf("meta = %q, %v", meta, err)
	}
}

func TestOpenFileRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.db")
	if err := os.WriteFile(bad, []byte("definitely not a page file, but long enough to read a header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Error("garbage file opened")
	}
	if _, err := OpenFile(filepath.Join(dir, "missing.db")); err == nil {
		t.Error("missing file opened")
	}
	short := filepath.Join(dir, "short.db")
	os.WriteFile(short, []byte("x"), 0o644)
	if _, err := OpenFile(short); err == nil {
		t.Error("truncated file opened")
	}
}

// corruptHeaderFile writes a valid page file, then rewrites one 32-bit
// header field, returning the path.
func corruptHeaderFile(t *testing.T, offset int, v uint32) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "hdr.db")
	fm, err := CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.WritePage(0, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if err := fm.WriteMeta([]byte("catalog")); err != nil {
		t.Fatal(err)
	}
	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(raw[offset:], v)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestOpenFileValidatesHeader(t *testing.T) {
	cases := []struct {
		name   string
		offset int
		value  uint32
	}{
		{"page size below minimum", 12, 8},
		{"page size zero", 12, 0},
		{"more pages than the file", 16, 100},
		{"page count at uint32 limit", 16, 0xffffffff},
		{"metadata longer than header", 20, 5000},
		{"metadata length overflow", 20, 0xffffffff},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := corruptHeaderFile(t, tc.offset, tc.value)
			if fm, err := OpenFile(path); err == nil {
				_ = fm.Close()
				t.Fatalf("corrupt header (%s) accepted", tc.name)
			}
		})
	}
	// The unmutated file still opens: the validation is not just
	// rejecting everything.
	path := corruptHeaderFile(t, 16, 1) // numPages = 1, its true value
	fm, err := OpenFile(path)
	if err != nil {
		t.Fatalf("valid header rejected: %v", err)
	}
	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}
}

// readHeaderNumPages reads the on-disk page count directly, bypassing
// the manager, to observe when the header actually hits the file.
func readHeaderNumPages(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(binary.LittleEndian.Uint32(raw[16:20]))
}

func TestFileManagerDefersHeaderUpdates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "defer.db")
	fm, err := CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 512)
	for i := 0; i < 5; i++ {
		if err := fm.WritePage(i, page); err != nil {
			t.Fatal(err)
		}
	}
	// Growth is visible in memory immediately but not on disk yet: the
	// header is batched, not rewritten per page.
	if fm.NumPages() != 5 {
		t.Fatalf("in-memory NumPages = %d", fm.NumPages())
	}
	if got := readHeaderNumPages(t, path); got != 0 {
		t.Fatalf("header advertises %d pages before flush", got)
	}
	if err := fm.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := readHeaderNumPages(t, path); got != 5 {
		t.Fatalf("header advertises %d pages after flush, want 5", got)
	}
	// Flush with nothing pending is a no-op.
	if err := fm.Flush(); err != nil {
		t.Fatal(err)
	}
	// More growth, published by Close this time.
	if err := fm.WritePage(7, page); err != nil {
		t.Fatal(err)
	}
	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}
	if got := readHeaderNumPages(t, path); got != 8 {
		t.Fatalf("header advertises %d pages after close, want 8", got)
	}
	re, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumPages() != 8 {
		t.Errorf("reopened NumPages = %d", re.NumPages())
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileManagerWriteMetaPublishesGrowth(t *testing.T) {
	path := filepath.Join(t.TempDir(), "meta.db")
	fm, err := CreateFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := fm.WritePage(2, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if err := fm.WriteMeta([]byte("cat")); err != nil {
		t.Fatal(err)
	}
	if got := readHeaderNumPages(t, path); got != 3 {
		t.Fatalf("WriteMeta published %d pages, want 3", got)
	}
	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateFileRejectsTinyPages(t *testing.T) {
	if _, err := CreateFile(filepath.Join(t.TempDir(), "x.db"), 16); err == nil {
		t.Error("tiny page size accepted")
	}
	if _, err := NewMemoryManager(16); err == nil {
		t.Error("tiny page size accepted by memory manager")
	}
}

func TestSaveLoadTreeRoundTrip(t *testing.T) {
	tr := buildTestTree(t, 800, 12)
	for name, dm := range testManagers(t) {
		t.Run(name, func(t *testing.T) {
			if err := SaveTree(dm, tr); err != nil {
				t.Fatal(err)
			}
			got, err := LoadTree(dm)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != tr.Len() || got.Height() != tr.Height() || got.NodeCount() != tr.NodeCount() {
				t.Fatal("tree shape changed across save/load")
			}
			if err := got.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Searches agree.
			rng := rand.New(rand.NewPCG(11, 12))
			for i := 0; i < 30; i++ {
				q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 0.15, 0.15)
				if !sameIDs(got.SearchWindow(q), tr.SearchWindow(q)) {
					t.Fatal("search mismatch after reload")
				}
			}
		})
	}
}

func TestSaveTreeRejectsOversizedCapacity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	tr := rtree.MustNew(rtree.Params{MaxEntries: 200})
	tr.InsertAll(randItems(rng, 10))
	dm, _ := NewMemoryManager(512) // capacity (512-8)/40 = 12 < 200
	if err := SaveTree(dm, tr); err == nil {
		t.Error("oversized node capacity accepted")
	}
}

func TestLoadTreeRejectsMissingMeta(t *testing.T) {
	dm, _ := NewMemoryManager(512)
	if _, err := LoadTree(dm); err == nil {
		t.Error("LoadTree without catalog succeeded")
	}
}

func TestTreeMetaRoundTrip(t *testing.T) {
	m := TreeMeta{MaxEntries: 25, MinEntries: 10, Split: rtree.SplitLinear, Items: 123456, Levels: []int{1, 4, 99}}
	got, err := decodeMeta(encodeMeta(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxEntries != 25 || got.MinEntries != 10 || got.Split != rtree.SplitLinear || got.Items != 123456 {
		t.Errorf("meta = %+v", got)
	}
	if len(got.Levels) != 3 || got.Levels[2] != 99 {
		t.Errorf("levels = %v", got.Levels)
	}
	if got.NumPages() != 104 {
		t.Errorf("NumPages = %d", got.NumPages())
	}
	lo, hi := got.LevelPageRange(2)
	if lo != 5 || hi != 104 {
		t.Errorf("LevelPageRange(2) = %d,%d", lo, hi)
	}
	// Corrupt metadata rejected.
	if _, err := decodeMeta([]byte("short")); err == nil {
		t.Error("short meta decoded")
	}
	buf := encodeMeta(m)
	buf[0] ^= 0xff
	if _, err := decodeMeta(buf); err == nil {
		t.Error("bad magic decoded")
	}
}

func sameIDs(a, b []rtree.Item) bool {
	if len(a) != len(b) {
		return false
	}
	as := make([]int64, len(a))
	bs := make([]int64, len(b))
	for i := range a {
		as[i], bs[i] = a[i].ID, b[i].ID
	}
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

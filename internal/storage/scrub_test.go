package storage

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"rtreebuf/internal/rtree"
)

func TestScrubCleanTree(t *testing.T) {
	// testManagers use 512-byte pages, which hold 12 entries.
	small := buildTestTree(t, 300, 12)
	for name, dm := range testManagers(t) {
		t.Run(name, func(t *testing.T) {
			if err := SaveTree(dm, small); err != nil {
				t.Fatal(err)
			}
			rep := Scrub(dm)
			if !rep.Clean() {
				t.Fatalf("clean tree scrubbed dirty: %v / %v", rep.MetaErr, rep.Faults)
			}
			if rep.Pages != small.NodeCount() {
				t.Errorf("scrub covered %d pages, want %d", rep.Pages, small.NodeCount())
			}
			if !strings.Contains(rep.String(), "clean") {
				t.Errorf("report string %q", rep.String())
			}
		})
	}
}

func TestScrubDetectsBitFlips(t *testing.T) {
	dm, tr := savedMemoryTree(t, 800, 16)
	fm := NewFaultManager(dm, 13)
	for _, page := range []int{1, 5} {
		if err := fm.CorruptStoredPage(page); err != nil {
			t.Fatal(err)
		}
	}
	rep := Scrub(dm)
	if rep.Clean() {
		t.Fatal("bit flips scrubbed clean")
	}
	if rep.MetaErr != nil {
		t.Fatalf("page damage misreported as catalog damage: %v", rep.MetaErr)
	}
	got := map[int]bool{}
	for _, f := range rep.Faults {
		got[f.Page] = true
		if !strings.Contains(f.String(), "page") {
			t.Errorf("fault string %q", f.String())
		}
	}
	if !got[1] || !got[5] || len(rep.Faults) != 2 {
		t.Fatalf("faults %v, want exactly pages 1 and 5 of %d", rep.Faults, tr.NodeCount())
	}
}

func TestScrubDetectsUnreadablePages(t *testing.T) {
	dm, _ := savedMemoryTree(t, 500, 16)
	fm := NewFaultManager(dm, 1).BadPage(3)
	rep := Scrub(fm)
	if rep.Clean() || len(rep.Faults) != 1 || rep.Faults[0].Page != 3 {
		t.Fatalf("report %+v, want exactly page 3 unreadable", rep)
	}
}

func TestScrubDetectsMissingCatalog(t *testing.T) {
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	rep := Scrub(dm)
	if rep.MetaErr == nil || rep.Clean() {
		t.Fatalf("empty manager scrubbed clean: %+v", rep)
	}
}

func TestScrubDetectsCatalogPageMismatch(t *testing.T) {
	dm, tr := savedMemoryTree(t, 400, 16)
	// Rewrite the catalog to claim one page more than is allocated.
	meta := TreeMeta{
		MaxEntries: tr.Params().MaxEntries,
		MinEntries: tr.Params().MinEntries,
		Split:      tr.Params().Split,
		Items:      tr.Len(),
		Levels:     append([]int(nil), tr.NodesPerLevel()...),
	}
	meta.Levels[len(meta.Levels)-1]++
	if err := dm.WriteMeta(encodeMeta(meta)); err != nil {
		t.Fatal(err)
	}
	rep := Scrub(dm)
	if rep.MetaErr == nil {
		t.Fatalf("inflated catalog scrubbed clean: %+v", rep)
	}
}

func TestScrubDetectsOutOfRangeChild(t *testing.T) {
	dm, _ := savedMemoryTree(t, 400, 16)
	// Re-point an entry of the root at a page beyond the tree. The
	// re-encoded page carries a fresh, valid checksum: only the
	// structural check can catch this.
	buf := make([]byte, dm.PageSize())
	if err := dm.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	nd, err := DecodeNode(buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if nd.Leaf {
		t.Fatal("fixture tree has a leaf root")
	}
	nd.Children[0] = 999999
	page, err := EncodeNode(nd, dm.PageSize())
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.WritePage(0, page); err != nil {
		t.Fatal(err)
	}
	rep := Scrub(dm)
	if rep.Clean() || len(rep.Faults) != 1 || rep.Faults[0].Page != 0 {
		t.Fatalf("report %+v, want exactly the root flagged", rep)
	}
	if !strings.Contains(rep.Faults[0].Err.Error(), "out-of-range child") {
		t.Errorf("fault error %v", rep.Faults[0].Err)
	}
}

func TestScrubFileManagerAfterAtomicSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tree.rt")
	tr := buildTestTree(t, 500, 16)
	if err := SaveTreeAtomic(path, DefaultPageSize, tr); err != nil {
		t.Fatal(err)
	}
	fm, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = fm.Close() }()
	if rep := Scrub(fm); !rep.Clean() {
		t.Fatalf("atomically saved file scrubbed dirty: %+v", rep)
	}
}

// freedFixture is an updated tree on a memory device whose deletes have
// left pages on the free list.
func freedFixture(t *testing.T) (*MemoryManager, TreeMeta) {
	t.Helper()
	items := randomItems(rand.New(rand.NewSource(53)), 200, 0)
	dm, _, pt := openUpdatable(t, items, 16)
	for _, it := range items[:150] {
		if found, err := pt.Delete(it); err != nil || !found {
			t.Fatalf("Delete %d: found=%v err=%v", it.ID, found, err)
		}
	}
	meta := pt.Meta()
	if meta.LevelOrder || len(meta.Free) == 0 {
		t.Fatalf("LevelOrder=%v with %d free pages: the fixture does not test what it says", meta.LevelOrder, len(meta.Free))
	}
	if rep := Scrub(dm); !rep.Clean() {
		t.Fatalf("fixture scrubbed dirty before tampering: %v", rep)
	}
	return dm, meta
}

// TestWalkChecksReachLoadTreePinLevelsAndScrub: the three readers that
// walk a stored tree share one walk and so one set of checks. A live
// entry re-pointed at a free page — re-encoded, so its checksum is valid
// — is refused by LoadTree and PinLevels and reported by Scrub; a catalog
// with fewer levels than the tree is deep is an error, not a panic.
func TestWalkChecksReachLoadTreePinLevelsAndScrub(t *testing.T) {
	wantFault := func(rep ScrubReport, want string) {
		t.Helper()
		for _, f := range rep.Faults {
			if strings.Contains(f.Err.Error(), want) {
				return
			}
		}
		t.Errorf("Scrub: %v, want a fault containing %q", rep, want)
	}

	t.Run("free child", func(t *testing.T) {
		dm, meta := freedFixture(t)
		buf := make([]byte, dm.PageSize())
		if err := dm.ReadPage(0, buf); err != nil {
			t.Fatal(err)
		}
		nd, err := DecodeNode(buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if nd.Leaf {
			t.Fatal("fixture tree has a leaf root")
		}
		nd.Children[0] = meta.Free[0]
		page, err := EncodeNode(nd, dm.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		if err := dm.WritePage(0, page); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("references free page %d", meta.Free[0])

		if _, err := LoadTree(dm); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadTree: %v, want an error containing %q", err, want)
		}
		pt, err := OpenPagedTree(dm, meta.PageSpan())
		if err != nil {
			t.Fatal(err)
		}
		if err := pt.PinLevels(len(meta.Levels)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("PinLevels(%d): %v, want an error containing %q", len(meta.Levels), err, want)
		}
		wantFault(Scrub(dm), want)
	})

	t.Run("deeper than the catalog", func(t *testing.T) {
		dm, meta := freedFixture(t)
		meta.Levels = meta.Levels[:len(meta.Levels)-1]
		if err := dm.WriteMeta(encodeMetaV2(meta)); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("below the catalog's %d levels", len(meta.Levels))
		if _, err := LoadTree(dm); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("LoadTree: %v, want an error containing %q", err, want)
		}
		wantFault(Scrub(dm), want)
	})
}

// TestEmptyNonRootNodeIsAFault: a kNN search counts every child it reads
// as a non-empty subtree, so a stored non-root node with no entries is
// damage. A leaf emptied in place — re-encoded, so its checksum is valid
// — is refused by LoadTree and reported by Scrub, on a level-order file
// (Scrub's page loop) and on an updated one (walkTree).
func TestEmptyNonRootNodeIsAFault(t *testing.T) {
	// emptyLeaf empties the first leaf below the root and returns its page.
	emptyLeaf := func(t *testing.T, dm *MemoryManager) int {
		t.Helper()
		buf := make([]byte, dm.PageSize())
		page := 0
		for {
			if err := dm.ReadPage(page, buf); err != nil {
				t.Fatal(err)
			}
			nd, err := DecodeNode(buf, page)
			if err != nil {
				t.Fatal(err)
			}
			if nd.Leaf {
				break
			}
			page = nd.Children[0]
		}
		if page == 0 {
			t.Fatal("fixture tree has a leaf root")
		}
		empty, err := EncodeNode(rtree.NodeData{Page: page, Leaf: true}, dm.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		if err := dm.WritePage(page, empty); err != nil {
			t.Fatal(err)
		}
		return page
	}
	for _, tc := range []struct {
		name    string
		fixture func(t *testing.T) *MemoryManager
	}{
		{"level order", func(t *testing.T) *MemoryManager { dm, _ := savedMemoryTree(t, 400, 16); return dm }},
		{"updated", func(t *testing.T) *MemoryManager { dm, _ := freedFixture(t); return dm }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dm := tc.fixture(t)
			page := emptyLeaf(t, dm)
			want := fmt.Sprintf("page %d is a non-root node with no entries", page)
			if _, err := LoadTree(dm); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("LoadTree: %v, want an error containing %q", err, want)
			}
			rep := Scrub(dm)
			if len(rep.Faults) != 1 || rep.Faults[0].Page != page || !strings.Contains(rep.Faults[0].Err.Error(), want) {
				t.Errorf("Scrub: %v, want exactly page %d reported: %q", rep, page, want)
			}
		})
	}
}

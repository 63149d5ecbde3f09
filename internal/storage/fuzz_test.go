package storage

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// FuzzDecodeNode throws arbitrary bytes at the page decoder: it must
// either return an error or a structurally sane NodeData — never panic,
// never return out-of-range shapes. `go test` exercises the seed corpus;
// `go test -fuzz=FuzzDecodeNode ./internal/storage` explores further.
func FuzzDecodeNode(f *testing.F) {
	// Seeds: a valid leaf page, a valid internal page, mutations.
	leaf := rtree.NodeData{
		Page: 0, Leaf: true,
		Rects: []geom.Rect{{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}},
		IDs:   []int64{7},
	}
	leafPage, err := EncodeNode(leaf, 256)
	if err != nil {
		f.Fatal(err)
	}
	internal := rtree.NodeData{
		Page: 1, Level: 1,
		Rects:    []geom.Rect{{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}},
		Children: []int{2},
	}
	internalPage, err := EncodeNode(internal, 256)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(leafPage)
	f.Add(internalPage)
	f.Add([]byte{})
	f.Add(make([]byte, nodeHeaderSize))
	corrupted := append([]byte(nil), leafPage...)
	corrupted[3] ^= 0xff
	f.Add(corrupted)

	f.Fuzz(func(t *testing.T, data []byte) {
		nd, err := DecodeNode(data, 0)
		if err != nil {
			return
		}
		// Successful decodes must be internally consistent.
		if nd.Leaf {
			if len(nd.IDs) != len(nd.Rects) || nd.Children != nil {
				t.Fatalf("inconsistent leaf decode: %+v", nd)
			}
		} else {
			if len(nd.Children) != len(nd.Rects) || nd.IDs != nil {
				t.Fatalf("inconsistent internal decode: %+v", nd)
			}
		}
		for _, r := range nd.Rects {
			if !r.Valid() {
				t.Fatalf("decoded invalid rect %v", r)
			}
		}
		// The query scan reads the same entries in place: a window every
		// valid rectangle intersects returns all of them, in page order.
		leaf, items, kids := scanPage(data, everything)
		if leaf != nd.Leaf || len(items)+len(kids) != len(nd.Rects) {
			t.Fatalf("scanFrame: leaf %v, %d items, %d children; DecodeNode: leaf %v, %d entries",
				leaf, len(items), len(kids), nd.Leaf, len(nd.Rects))
		}
		for i, it := range items {
			if it.ID != nd.IDs[i] || !sameBits(it.Rect, nd.Rects[i]) {
				t.Fatalf("scanFrame item %d = %v, DecodeNode entry = (%v, %d)", i, it, nd.Rects[i], nd.IDs[i])
			}
		}
		if !nd.Leaf && !slices.Equal(kids, nd.Children) {
			t.Fatalf("scanFrame children %v, DecodeNode %v", kids, nd.Children)
		}
		// Round trip: re-encoding must reproduce a decodable page.
		if len(nd.Rects) <= NodeCapacity(4096) {
			page, err := EncodeNode(nd, 4096)
			if err != nil {
				t.Fatalf("re-encode failed: %v", err)
			}
			if _, err := DecodeNode(page, 0); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
		}
	})
}

// FuzzOpenFile throws arbitrary file contents at the page-file opener:
// whatever the header claims, OpenFile must either reject the file with
// an error or produce a manager whose geometry is consistent with the
// format's laws and the file's actual size — never panic, never trust a
// header the file cannot back.
func FuzzOpenFile(f *testing.F) {
	// Seed with a genuine file plus targeted mutations of its header.
	dir := f.TempDir()
	good := filepath.Join(dir, "good.rt")
	fm, err := CreateFile(good, MinPageSize)
	if err != nil {
		f.Fatal(err)
	}
	if err := fm.WritePage(0, make([]byte, MinPageSize)); err != nil {
		f.Fatal(err)
	}
	if err := fm.WriteMeta([]byte("meta")); err != nil {
		f.Fatal(err)
	}
	if err := fm.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(good)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:5])           // truncated mid-magic
	f.Add(valid[:headerFixed]) // header only, no pages
	f.Add([]byte{})            // empty file
	mutate := func(offset int, v uint32) []byte {
		cp := append([]byte(nil), valid...)
		binary.LittleEndian.PutUint32(cp[offset:], v)
		return cp
	}
	f.Add(mutate(8, 99))          // bad version
	f.Add(mutate(12, 8))          // page size below minimum
	f.Add(mutate(12, 1<<31))      // absurd page size
	f.Add(mutate(16, 1000))       // more pages than the file holds
	f.Add(mutate(16, 0xffffffff)) // page count at the uint32 limit
	f.Add(mutate(20, 0xffffffff)) // metadata length overflow
	bad := append([]byte(nil), valid...)
	copy(bad, "NOTATREE")
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.rt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fm, err := OpenFile(path)
		if err != nil {
			return
		}
		defer func() { _ = fm.Close() }()
		if fm.PageSize() < MinPageSize {
			t.Fatalf("accepted page size %d below minimum", fm.PageSize())
		}
		if fm.NumPages() < 0 {
			t.Fatalf("negative page count %d", fm.NumPages())
		}
		if need := uint64(fm.PageSize()) * uint64(fm.NumPages()+1); uint64(len(data)) < need {
			t.Fatalf("accepted header claiming %d bytes from a %d-byte file", need, len(data))
		}
		meta, err := fm.ReadMeta()
		if err != nil {
			t.Fatalf("accepted file but metadata unreadable: %v", err)
		}
		if len(meta) > fm.PageSize()-headerFixed {
			t.Fatalf("metadata %d bytes exceeds header capacity", len(meta))
		}
		// Every advertised page must be readable (it is within the file).
		buf := make([]byte, fm.PageSize())
		for page := 0; page < fm.NumPages(); page++ {
			if err := fm.ReadPage(page, buf); err != nil {
				t.Fatalf("advertised page %d unreadable: %v", page, err)
			}
		}
	})
}

// FuzzDecodeMeta does the same for the tree catalog decoder.
func FuzzDecodeMeta(f *testing.F) {
	good := encodeMeta(TreeMeta{MaxEntries: 25, MinEntries: 10, Items: 1000, Levels: []int{1, 4, 40}})
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:10])
	f.Add(encodeMetaV2(TreeMeta{MaxEntries: 25, MinEntries: 10, Items: 1000, Levels: []int{1, 4, 40}, TotalPages: 48, Free: []int{45, 46, 47}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := decodeMeta(data)
		if err != nil {
			return
		}
		if m.NumPages() < 0 {
			t.Fatalf("negative page count from %+v", m)
		}
		span := m.PageSpan()
		if m.NumPages()+len(m.Free) > span {
			t.Fatalf("accepted %d live and %d free pages in a span of %d", m.NumPages(), len(m.Free), span)
		}
		listed := make(map[int]bool, len(m.Free))
		for _, p := range m.Free {
			if p < 1 || p >= span {
				t.Fatalf("accepted free page %d outside [1,%d)", p, span)
			}
			if listed[p] {
				t.Fatalf("accepted free page %d twice", p)
			}
			listed[p] = true
		}
	})
}

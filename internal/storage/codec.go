package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// Node page layout (little endian):
//
//	0:1   flags (bit 0: leaf)
//	1:2   reserved
//	2:4   entry count
//	4:8   reserved: written zero, ignored on decode (files written before
//	      PR 19 hold the node's level here; a node's level is its depth,
//	      which readers derive from the catalog or the walk)
//	8:12  CRC-32C of the rest of the page (header with zeroed checksum
//	      field + all entry bytes) — torn or corrupted pages fail decode
//	      instead of silently yielding a wrong query result
//	12:16 reserved
//	16:   entries, entrySize bytes each:
//	      0:32  rect (MinX, MinY, MaxX, MaxY as float64)
//	      32:40 payload: child page (uint64) for internal nodes,
//	            data ID (int64) for leaves
const (
	nodeHeaderSize = 16
	entrySize      = 40
	flagLeaf       = 1
	checksumOffset = 8
)

// NodeCapacity returns the maximum entries per node a page of the given
// size can hold.
func NodeCapacity(pageSize int) int {
	return (pageSize - nodeHeaderSize) / entrySize
}

// EncodeNode serializes nd into a fresh page of the given size.
func EncodeNode(nd rtree.NodeData, pageSize int) ([]byte, error) {
	buf := make([]byte, pageSize)
	if err := encodeNodeInto(buf, nd); err != nil {
		return nil, err
	}
	return buf, nil
}

// encodeNodeInto serializes nd over buf, one whole page: every byte of it
// is written, so a buffer that held another page before is as good as a
// fresh one. It refuses what validatePage refuses, more entries than the
// page holds or a rectangle that is not Valid (a NaN or an inverted
// one), so that no page it writes is unreadable.
func encodeNodeInto(buf []byte, nd rtree.NodeData) error {
	if len(nd.Rects) > NodeCapacity(len(buf)) {
		return fmt.Errorf("storage: node with %d entries exceeds page capacity %d",
			len(nd.Rects), NodeCapacity(len(buf)))
	}
	for i, r := range nd.Rects {
		if !r.Valid() {
			return fmt.Errorf("storage: node entry %d has invalid rect %v", i, r)
		}
	}
	for i, r := range nd.Rects {
		e := buf[nodeHeaderSize+i*entrySize:]
		if nd.Leaf {
			putEntry(e, r, uint64(nd.IDs[i]))
		} else {
			putEntry(e, r, uint64(nd.Children[i]))
		}
	}
	finishPage(buf, nd.Leaf, len(nd.Rects))
	return nil
}

// pageChecksum computes the CRC-32C of the page with the checksum field
// treated as zero.
func pageChecksum(buf []byte) uint32 {
	crc := crc32.Update(0, castagnoli, buf[:checksumOffset])
	crc = crc32.Update(crc, castagnoli, zeroChecksum[:])
	return crc32.Update(crc, castagnoli, buf[checksumOffset+4:])
}

var (
	castagnoli   = crc32.MakeTable(crc32.Castagnoli)
	zeroChecksum [4]byte
)

// VerifyPage checks a node page's stored checksum against its contents
// without decoding it. It returns nil for an intact page and a
// descriptive error for a short, torn, or bit-flipped one — the cheap
// integrity probe the resilience layer and Scrub run before (or instead
// of) a full DecodeNode.
func VerifyPage(buf []byte) error {
	if len(buf) < nodeHeaderSize {
		return fmt.Errorf("storage: page too short (%d bytes)", len(buf))
	}
	if got, want := binary.LittleEndian.Uint32(buf[checksumOffset:]), pageChecksum(buf); got != want {
		return fmt.Errorf("storage: checksum mismatch (%08x != %08x): corrupt or torn page", got, want)
	}
	return nil
}

// validatePage is every check a node page must pass before anything reads
// its entries: the checksum, the entry count within the page, every
// rectangle valid. DecodeNode runs it per call; the paged tree runs it
// once, as the page enters the buffer pool (dmSource.ReadPage), which is
// what lets its queries walk the entries in place with pageEntries.
func validatePage(buf []byte, page int) error {
	if err := VerifyPage(buf); err != nil {
		return fmt.Errorf("storage: page %d: %w", page, err)
	}
	count := pageCount(buf)
	if nodeHeaderSize+count*entrySize > len(buf) {
		return fmt.Errorf("storage: page %d claims %d entries beyond page end", page, count)
	}
	for i, e := 0, pageEntries(buf); len(e) >= entrySize; i, e = i+1, e[entrySize:] {
		if r := getRect(e); !r.Valid() {
			return fmt.Errorf("storage: page %d entry %d has invalid rect %v", page, i, r)
		}
	}
	return nil
}

// In-place access to a validated page: the layout above, read without
// materializing a NodeData. A reader steps through the entries with a
// cursor over pageEntries,
//
//	for e := pageEntries(buf); len(e) >= entrySize; e = e[entrySize:]
//
// and reads entry e's fields with getRect, getPayload or getFloat at the
// field's offset.

func pageIsLeaf(buf []byte) bool { return buf[0]&flagLeaf != 0 }

func pageCount(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[2:4])) }

// pageEntries returns the entry bytes of a page whose count validatePage
// has checked against the page end: count*entrySize bytes, entry 0 first.
func pageEntries(buf []byte) []byte {
	return buf[nodeHeaderSize : nodeHeaderSize+pageCount(buf)*entrySize]
}

// getRect returns the rectangle of the entry e starts with.
func getRect(e []byte) geom.Rect {
	return geom.Rect{MinX: getFloat(e), MinY: getFloat(e[8:]), MaxX: getFloat(e[16:]), MaxY: getFloat(e[24:])}
}

// getPayload returns the payload of the entry e starts with: the child
// page of an internal node's entry, the data ID of a leaf's.
func getPayload(e []byte) uint64 { return binary.LittleEndian.Uint64(e[32:]) }

// DecodeNode parses a node page. page is recorded into the result; the
// buffer is not retained. Level is left zero: a page does not know its
// node's depth (walkTree finds it).
func DecodeNode(buf []byte, page int) (rtree.NodeData, error) {
	if err := validatePage(buf, page); err != nil {
		return rtree.NodeData{}, err
	}
	count := pageCount(buf)
	nd := rtree.NodeData{Page: page, Rects: make([]geom.Rect, 0, count)}
	if pageIsLeaf(buf) {
		nd.IDs = make([]int64, 0, count)
	} else {
		nd.Children = make([]int, 0, count)
	}
	nd.Leaf = pageIsLeaf(buf)
	for e := pageEntries(buf); len(e) >= entrySize; e = e[entrySize:] {
		nd.Rects = append(nd.Rects, getRect(e))
		if payload := getPayload(e); nd.Leaf {
			nd.IDs = append(nd.IDs, int64(payload))
		} else {
			nd.Children = append(nd.Children, int(payload))
		}
	}
	return nd, nil
}

// Writing a page in place, as encodeNodeInto and the update path do:
// entries go in with putEntry or are copied whole, rectangles are
// rewritten with putRect, and finishPage completes the page.

func setPageCount(buf []byte, n int) { binary.LittleEndian.PutUint16(buf[2:4], uint16(n)) }

// putRect overwrites the rectangle of the entry e starts with.
func putRect(e []byte, r geom.Rect) {
	putFloat(e, r.MinX)
	putFloat(e[8:], r.MinY)
	putFloat(e[16:], r.MaxX)
	putFloat(e[24:], r.MaxY)
}

// putEntry writes the entry e starts with: rectangle and payload.
func putEntry(e []byte, r geom.Rect, payload uint64) {
	putRect(e, r)
	binary.LittleEndian.PutUint64(e[32:], payload)
}

// finishPage completes a page whose count entries are in place: the
// header (the leaf flag, the count, the reserved bytes zero), every byte
// past the entries zeroed, and the checksum.
func finishPage(buf []byte, leaf bool, count int) {
	clear(buf[:nodeHeaderSize])
	if leaf {
		buf[0] = flagLeaf
	}
	setPageCount(buf, count)
	clear(buf[nodeHeaderSize+count*entrySize:])
	binary.LittleEndian.PutUint32(buf[checksumOffset:], pageChecksum(buf))
}

func putFloat(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

func getFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

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
// fresh one.
func encodeNodeInto(buf []byte, nd rtree.NodeData) error {
	if len(nd.Rects) > NodeCapacity(len(buf)) {
		return fmt.Errorf("storage: node with %d entries exceeds page capacity %d",
			len(nd.Rects), NodeCapacity(len(buf)))
	}
	clear(buf[:nodeHeaderSize])
	if nd.Leaf {
		buf[0] = flagLeaf
	}
	binary.LittleEndian.PutUint16(buf[2:4], uint16(len(nd.Rects)))
	off := nodeHeaderSize
	for i, r := range nd.Rects {
		putFloat(buf[off:], r.MinX)
		putFloat(buf[off+8:], r.MinY)
		putFloat(buf[off+16:], r.MaxX)
		putFloat(buf[off+24:], r.MaxY)
		if nd.Leaf {
			binary.LittleEndian.PutUint64(buf[off+32:], uint64(nd.IDs[i]))
		} else {
			binary.LittleEndian.PutUint64(buf[off+32:], uint64(nd.Children[i]))
		}
		off += entrySize
	}
	clear(buf[off:])
	binary.LittleEndian.PutUint32(buf[checksumOffset:], pageChecksum(buf))
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
// what lets its queries read entries in place with the accessors below.
func validatePage(buf []byte, page int) error {
	if err := VerifyPage(buf); err != nil {
		return fmt.Errorf("storage: page %d: %w", page, err)
	}
	count := pageCount(buf)
	if nodeHeaderSize+count*entrySize > len(buf) {
		return fmt.Errorf("storage: page %d claims %d entries beyond page end", page, count)
	}
	for i := 0; i < count; i++ {
		if r := entryRect(buf, i); !r.Valid() {
			return fmt.Errorf("storage: page %d entry %d has invalid rect %v", page, i, r)
		}
	}
	return nil
}

// In-place accessors over a validated page: the layout above, read
// without materializing a NodeData.

func pageIsLeaf(buf []byte) bool { return buf[0]&flagLeaf != 0 }

func pageCount(buf []byte) int { return int(binary.LittleEndian.Uint16(buf[2:4])) }

// entryRect returns the rectangle of entry i.
func entryRect(buf []byte, i int) geom.Rect {
	e := buf[nodeHeaderSize+i*entrySize:][:entrySize]
	return geom.Rect{
		MinX: getFloat(e),
		MinY: getFloat(e[8:]),
		MaxX: getFloat(e[16:]),
		MaxY: getFloat(e[24:]),
	}
}

// entryPayload returns the payload of entry i: the child page of an
// internal node's entry, the data ID of a leaf's.
func entryPayload(buf []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(buf[nodeHeaderSize+i*entrySize+32:])
}

// DecodeNode parses a node page. page is recorded into the result; the
// buffer is not retained. Level is left zero: a page does not know its
// node's depth (see readLiveNodes).
func DecodeNode(buf []byte, page int) (rtree.NodeData, error) {
	if err := validatePage(buf, page); err != nil {
		return rtree.NodeData{}, err
	}
	return decodeValidated(buf, page), nil
}

// decodeValidated materializes a page that already passed validatePage.
func decodeValidated(buf []byte, page int) rtree.NodeData {
	nd := rtree.NodeData{Page: page, Leaf: pageIsLeaf(buf)}
	count := pageCount(buf)
	nd.Rects = make([]geom.Rect, count)
	if nd.Leaf {
		nd.IDs = make([]int64, count)
	} else {
		nd.Children = make([]int, count)
	}
	for i := 0; i < count; i++ {
		nd.Rects[i] = entryRect(buf, i)
		if payload := entryPayload(buf, i); nd.Leaf {
			nd.IDs[i] = int64(payload)
		} else {
			nd.Children[i] = int(payload)
		}
	}
	return nd
}

func putFloat(b []byte, v float64) {
	binary.LittleEndian.PutUint64(b, math.Float64bits(v))
}

func getFloat(b []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

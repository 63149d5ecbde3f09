// Package storage provides the paged persistence substrate that turns
// "disk access" from a modeling abstraction into a countable event: fixed
// size pages, a node codec, file-backed and in-memory disk managers with
// I/O accounting, whole-tree save/load, and a PagedTree that executes
// queries by reading node pages through an LRU buffer pool — the
// end-to-end system the paper's cost model predicts.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// DefaultPageSize is the page size used throughout the experiments: a
// conventional 4 KiB database page, large enough for the paper's node
// capacities (up to 100 entries).
const DefaultPageSize = 4096

// MinPageSize bounds how small a page may be and still hold the node
// header plus one entry.
const MinPageSize = nodeHeaderSize + entrySize

// IOStats counts physical page transfers.
type IOStats struct {
	Reads, Writes uint64
}

// ioCounters is the managers' internal counter pair. The sharded buffer
// pool issues ReadPage calls (and dirty-page WritePage write-backs)
// from many goroutines with no lock held, so the counters must be
// atomic or the accounting itself would race. The managers' page state
// is synchronized separately: MemoryManager guards its page table with
// an RWMutex, FileManager keeps its header state (page count, dirty
// flags) in atomics — see the concurrency notes on each type.
type ioCounters struct {
	reads, writes atomic.Uint64
}

func (c *ioCounters) snapshot() IOStats {
	return IOStats{Reads: c.reads.Load(), Writes: c.writes.Load()}
}

func (c *ioCounters) reset() {
	c.reads.Store(0)
	c.writes.Store(0)
}

// DiskManager stores fixed-size pages addressed by dense integers, plus a
// small metadata blob (tree catalog). Implementations count I/O.
type DiskManager interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages.
	NumPages() int
	// ReadPage fills dst (len >= PageSize) with page's contents.
	ReadPage(page int, dst []byte) error
	// WritePage stores data (len == PageSize) as page's contents,
	// allocating any pages up to and including it.
	WritePage(page int, data []byte) error
	// WriteMeta stores the metadata blob (at most PageSize bytes).
	WriteMeta(meta []byte) error
	// ReadMeta returns a copy of the metadata blob.
	ReadMeta() ([]byte, error)
	// Stats returns cumulative I/O counts.
	Stats() IOStats
	// ResetStats zeroes the I/O counters.
	ResetStats()
	// Close releases resources. The manager is unusable afterwards.
	Close() error
}

// MemoryManager is an in-memory DiskManager: the experiments' default,
// where "disk" reads are counted but cost nothing. It lets the full test
// suite exercise the identical code path as the file manager.
//
// ReadPage and WritePage are safe for concurrent use — the sharded
// buffer pool issues both from many goroutines with no lock held. An
// RWMutex guards the page table: reads share, writes (which may grow
// the table) exclude, so a growing append can never race a reader's
// index.
type MemoryManager struct {
	pageSize int
	mu       sync.RWMutex // guards pages, meta, closed
	pages    [][]byte
	meta     []byte
	stats    ioCounters
	metrics  *Metrics
	closed   bool
}

// NewMemoryManager returns an empty in-memory manager.
func NewMemoryManager(pageSize int) (*MemoryManager, error) {
	if pageSize < MinPageSize {
		return nil, fmt.Errorf("storage: page size %d < minimum %d", pageSize, MinPageSize)
	}
	return &MemoryManager{pageSize: pageSize}, nil
}

// PageSize implements DiskManager.
func (m *MemoryManager) PageSize() int { return m.pageSize }

// NumPages implements DiskManager.
func (m *MemoryManager) NumPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.pages)
}

// ReadPage implements DiskManager.
func (m *MemoryManager) ReadPage(page int, dst []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return fmt.Errorf("storage: read on closed manager")
	}
	if page < 0 || page >= len(m.pages) {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", page, len(m.pages))
	}
	if len(dst) < m.pageSize {
		return fmt.Errorf("storage: read buffer %d < page size %d", len(dst), m.pageSize)
	}
	copy(dst, m.pages[page])
	m.stats.reads.Add(1)
	m.metrics.noteRead(m.pageSize)
	return nil
}

// WritePage implements DiskManager.
func (m *MemoryManager) WritePage(page int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return fmt.Errorf("storage: write on closed manager")
	}
	if page < 0 {
		return fmt.Errorf("storage: write of negative page %d", page)
	}
	if len(data) != m.pageSize {
		return fmt.Errorf("storage: write of %d bytes != page size %d", len(data), m.pageSize)
	}
	for len(m.pages) <= page {
		m.pages = append(m.pages, make([]byte, m.pageSize))
	}
	copy(m.pages[page], data)
	m.stats.writes.Add(1)
	m.metrics.noteWrite(m.pageSize)
	return nil
}

// WriteMeta implements DiskManager. The blob is copied into the
// manager's own buffer, reused from one write to the next: ReadMeta
// hands out copies, so nothing outside holds it.
func (m *MemoryManager) WriteMeta(meta []byte) error {
	if len(meta) > m.pageSize {
		return fmt.Errorf("storage: metadata %d bytes > page size %d", len(meta), m.pageSize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.meta = append(m.meta[:0], meta...)
	return nil
}

// ReadMeta implements DiskManager.
func (m *MemoryManager) ReadMeta() ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]byte(nil), m.meta...), nil
}

// Stats implements DiskManager.
func (m *MemoryManager) Stats() IOStats { return m.stats.snapshot() }

// ResetStats implements DiskManager.
func (m *MemoryManager) ResetStats() { m.stats.reset() }

// Close implements DiskManager.
func (m *MemoryManager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pages = nil
	return nil
}

// File format of FileManager:
//
//	offset 0:                 header (one page-sized block)
//	offset pageSize*(1+meta): page 0, page 1, ...
//
// header layout (little endian):
//
//	0:8   magic "RTREEBUF"
//	8:12  format version (1)
//	12:16 page size
//	16:20 number of pages
//	20:24 metadata length
//	24:   metadata blob (up to pageSize-24 bytes)
const (
	fileMagic     = "RTREEBUF"
	formatVersion = 1
	headerFixed   = 24
)

// FileManager is a file-backed DiskManager. Writes are positional
// (pwrite, then fsync); reads copy the page out of a read-only shared
// mapping of the file, and take pread for a page past the mapping, when
// the map failed, or on a platform without one. No byte is written
// through the mapping, so durability and crash behaviour are those of
// the writes alone.
//
// The header is written lazily: growing the file only updates the
// in-memory page count, and the header block is rewritten on WriteMeta,
// Flush, or Close — always after the page data has been synced, so a
// crash can never leave a header advertising pages that were not
// durably written. (Rewriting the page-sized header on every appended
// page made SaveTree O(pages) redundant header writes.)
//
// ReadPage and WritePage are safe for concurrent use on distinct pages
// — the sharded buffer pool issues both from many goroutines with no
// lock held. The page count and the two dirty flags are atomics so a
// concurrent extension is never lost; Flush and WriteMeta snapshot them
// in an order that keeps the lazy-header invariant (header never
// advertises unsynced pages) under concurrent writes. Same-page
// read/write overlap and concurrent WriteMeta/Flush/Close remain the
// caller's responsibility, which the pool's no-steal write-back protocol
// satisfies.
//
// The mapping is made on that write side only: OpenFile maps what its
// header describes, and WriteMeta and Flush (so Sync and Close too) map
// afresh once the pages have outgrown the view. ReadPage loads the
// published view and takes no lock. A replaced view stays mapped until
// Close, because a reader may still be copying from it.
type FileManager struct {
	f         *os.File
	pageSize  int
	numPages  atomic.Int64
	meta      []byte
	stats     ioCounters
	metrics   *Metrics
	hdrDirty  atomic.Bool            // in-memory numPages is ahead of the on-disk header
	dataDirty atomic.Bool            // page writes since the last sync (ordering guard for WriteMeta)
	view      atomic.Pointer[[]byte] // the mapping ReadPage copies from; nil: every read takes pread
	views     [][]byte               // every mapping made, current one last; write side only
}

// CreateFile creates (or truncates) a page file at path.
func CreateFile(path string, pageSize int) (*FileManager, error) {
	if pageSize < MinPageSize {
		return nil, fmt.Errorf("storage: page size %d < minimum %d", pageSize, MinPageSize)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("storage: creating %s: %w", path, err)
	}
	fm := &FileManager{f: f, pageSize: pageSize}
	if err := fm.writeHeader(0); err != nil {
		_ = f.Close() // the original error is the one worth reporting
		return nil, err
	}
	return fm, nil
}

// OpenFile opens an existing page file.
func OpenFile(path string) (*FileManager, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("storage: opening %s: %w", path, err)
	}
	hdr := make([]byte, headerFixed)
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, headerFixed), hdr); err != nil {
		_ = f.Close() // the original error is the one worth reporting
		return nil, fmt.Errorf("storage: reading header of %s: %w", path, err)
	}
	if string(hdr[0:8]) != fileMagic {
		_ = f.Close() // the original error is the one worth reporting
		return nil, fmt.Errorf("storage: %s is not an rtreebuf page file", path)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != formatVersion {
		_ = f.Close() // the original error is the one worth reporting
		return nil, fmt.Errorf("storage: %s has format version %d, want %d", path, v, formatVersion)
	}
	// Validate the header against the laws of the format and against the
	// file itself before trusting any of it: a truncated copy, a torn
	// header write, or plain bit rot must fail here with a clear message,
	// not surface later as an out-of-bounds read.
	pageSize := int64(binary.LittleEndian.Uint32(hdr[12:16]))
	numPages := int64(binary.LittleEndian.Uint32(hdr[16:20]))
	metaLen := int64(binary.LittleEndian.Uint32(hdr[20:24]))
	if pageSize < MinPageSize {
		_ = f.Close() // the original error is the one worth reporting
		return nil, fmt.Errorf("storage: %s header corrupt: page size %d < minimum %d", path, pageSize, MinPageSize)
	}
	if metaLen > pageSize-headerFixed {
		_ = f.Close() // the original error is the one worth reporting
		return nil, fmt.Errorf("storage: %s header corrupt: metadata length %d exceeds header capacity %d",
			path, metaLen, pageSize-headerFixed)
	}
	fi, err := f.Stat()
	if err != nil {
		_ = f.Close() // the original error is the one worth reporting
		return nil, fmt.Errorf("storage: stating %s: %w", path, err)
	}
	// The header occupies one page-sized block and pages follow densely,
	// so numPages pages need (numPages+1)*pageSize bytes. uint64 keeps
	// the product exact: both factors fit in 32 bits.
	if need := uint64(pageSize) * uint64(numPages+1); uint64(fi.Size()) < need {
		_ = f.Close() // the original error is the one worth reporting
		return nil, fmt.Errorf("storage: %s header corrupt: %d pages of %d bytes need %d bytes, file has %d",
			path, numPages, pageSize, need, fi.Size())
	}
	fm := &FileManager{
		f:        f,
		pageSize: int(pageSize),
	}
	fm.numPages.Store(numPages)
	if metaLen > 0 {
		fm.meta = make([]byte, metaLen)
		if _, err := f.ReadAt(fm.meta, headerFixed); err != nil {
			_ = f.Close() // the original error is the one worth reporting
			return nil, fmt.Errorf("storage: reading metadata of %s: %w", path, err)
		}
	}
	fm.growView()
	return fm, nil
}

// writeHeader rewrites the header block advertising numPages pages.
// Callers pass a page count they snapshotted *before* syncing the data,
// so the header can never get ahead of what a concurrent WritePage has
// durably on disk.
func (fm *FileManager) writeHeader(numPages int64) error {
	if len(fm.meta) > fm.pageSize-headerFixed {
		return fmt.Errorf("storage: metadata %d bytes > header capacity %d",
			len(fm.meta), fm.pageSize-headerFixed)
	}
	hdr := make([]byte, fm.pageSize)
	copy(hdr[0:8], fileMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], formatVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(fm.pageSize))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(numPages))
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(fm.meta)))
	copy(hdr[headerFixed:], fm.meta)
	if _, err := fm.f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("storage: writing header: %w", err)
	}
	return nil
}

func (fm *FileManager) pageOffset(page int) int64 {
	return int64(fm.pageSize) * int64(page+1)
}

// PageSize implements DiskManager.
func (fm *FileManager) PageSize() int { return fm.pageSize }

// NumPages implements DiskManager.
func (fm *FileManager) NumPages() int { return int(fm.numPages.Load()) }

// ReadPage implements DiskManager.
func (fm *FileManager) ReadPage(page int, dst []byte) error {
	if n := fm.numPages.Load(); page < 0 || int64(page) >= n {
		return fmt.Errorf("storage: read of unallocated page %d (have %d)", page, n)
	}
	if len(dst) < fm.pageSize {
		return fmt.Errorf("storage: read buffer %d < page size %d", len(dst), fm.pageSize)
	}
	// numPages counts only pages whose WriteAt has returned, so the page
	// lies inside the file even where the view runs past its end.
	off := fm.pageOffset(page)
	var err error
	if v := fm.view.Load(); v != nil && off+int64(fm.pageSize) <= int64(len(*v)) {
		err = copyView(dst[:fm.pageSize], (*v)[off:])
	} else {
		_, err = fm.f.ReadAt(dst[:fm.pageSize], off)
	}
	if err != nil {
		return fmt.Errorf("storage: reading page %d: %w", page, err)
	}
	fm.stats.reads.Add(1)
	fm.metrics.noteRead(fm.pageSize)
	return nil
}

// copyView copies a page out of a mapped view. A page the file no longer
// holds (truncated underneath, or a media error at page-in) faults on
// the copy; with panic-on-fault that fault becomes the read's error, as
// a failed pread would be, instead of killing the process.
func copyView(dst, src []byte) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer recoverFault(&err)
	copy(dst, src)
	return nil
}

// recoverFault is copyView's deferred recover, a named function so the
// read path creates no closure.
func recoverFault(err *error) {
	r := recover()
	if r == nil {
		return
	}
	fault, ok := r.(runtime.Error)
	if !ok {
		panic(r)
	}
	*err = fmt.Errorf("fault in mapped view: %w", fault)
}

// growView maps the file afresh when its pages have outgrown the current
// view. The new view spans twice the pages' extent, so a growing file is
// remapped O(log n) times. Mapping past the end of the file is legal:
// those pages become readable as WritePage extends the file. A failed map
// leaves the old view (or none) in place and reads beyond it keep taking
// pread, so its error changes nothing and is dropped.
func (fm *FileManager) growView() {
	n := fm.numPages.Load()
	end := fm.pageOffset(int(n))
	if v := fm.view.Load(); n == 0 || v != nil && end <= int64(len(*v)) {
		return
	}
	v, err := mapFile(fm.f, 2*end)
	if err != nil {
		return
	}
	fm.views = append(fm.views, v)
	fm.view.Store(&v)
}

// closeFile unmaps every view and closes the file. Close and a failed
// SaveTreeAtomicWith both let go of the file through it, so neither path
// leaks a mapping.
func (fm *FileManager) closeFile() error {
	fm.view.Store(nil)
	var errs []error
	for _, v := range fm.views {
		errs = append(errs, unmapFile(v))
	}
	fm.views = nil
	if err := errors.Join(errs...); err != nil {
		_ = fm.f.Close() // the unmap failure is the one worth reporting
		return err
	}
	return fm.f.Close()
}

// WritePage implements DiskManager. The data flag goes up before the
// page count moves: any extension a Flush observes in the count is then
// guaranteed to also be visible as dirty data, so it gets synced before
// the header advertises it.
func (fm *FileManager) WritePage(page int, data []byte) error {
	if page < 0 {
		return fmt.Errorf("storage: write of negative page %d", page)
	}
	if len(data) != fm.pageSize {
		return fmt.Errorf("storage: write of %d bytes != page size %d", len(data), fm.pageSize)
	}
	if _, err := fm.f.WriteAt(data, fm.pageOffset(page)); err != nil {
		return fmt.Errorf("storage: writing page %d: %w", page, err)
	}
	fm.stats.writes.Add(1)
	fm.metrics.noteWrite(fm.pageSize)
	fm.dataDirty.Store(true)
	for {
		n := fm.numPages.Load()
		if int64(page) < n {
			break
		}
		if fm.numPages.CompareAndSwap(n, int64(page)+1) {
			fm.hdrDirty.Store(true)
			break
		}
		// Lost the race to another extension; re-check against its count.
	}
	return nil
}

// Flush publishes any deferred growth: it syncs the page data first and
// only then rewrites the header, so the on-disk header never advertises
// pages that a crash could have swallowed. It is a no-op when both the
// header and the page data are current. WriteMeta and Close flush
// implicitly.
func (fm *FileManager) Flush() error {
	fm.growView()
	if !fm.hdrDirty.Load() && !fm.dataDirty.Load() {
		return nil
	}
	// Ordering under concurrent WritePage (the pool's write-backs):
	// consume the header flag before snapshotting the page count, and
	// clear the data flag before syncing. Any extension the snapshot
	// includes finished its WriteAt first, so the sync covers it; any
	// write landing later re-raises the flags and is picked up by the
	// next flush. The header therefore never advertises unsynced pages.
	hdr := fm.hdrDirty.Swap(false)
	numPages := fm.numPages.Load()
	fm.dataDirty.Store(false)
	if err := fm.f.Sync(); err != nil {
		fm.dataDirty.Store(true)
		if hdr {
			fm.hdrDirty.Store(true)
		}
		return fmt.Errorf("storage: syncing pages before header update: %w", err)
	}
	fm.metrics.noteFsync()
	if hdr {
		if err := fm.writeHeader(numPages); err != nil {
			fm.hdrDirty.Store(true)
			return err
		}
	}
	return nil
}

// WriteMeta implements DiskManager. It enforces the ordering invariant
// that metadata can never be durably ahead of page data: any unsynced
// page write — growth (deferred header) or an in-place overwrite — is
// synced before the header carrying the new metadata goes down.
// (In-place overwrites used to slip past this guard: only growth marked
// the manager dirty, so a caller rewriting existing pages and then the
// catalog could crash into a new catalog over old page bytes.)
func (fm *FileManager) WriteMeta(meta []byte) error {
	old := fm.meta
	fm.meta = append([]byte(nil), meta...)
	// Same flag/count ordering as Flush: the data-dirty check runs after
	// the count snapshot, so any extension the snapshot includes is seen
	// as dirty data here and synced before the header advertises it.
	hdr := fm.hdrDirty.Swap(false)
	numPages := fm.numPages.Load()
	if hdr || fm.dataDirty.Load() {
		fm.dataDirty.Store(false)
		if err := fm.f.Sync(); err != nil {
			fm.meta = old
			fm.dataDirty.Store(true)
			if hdr {
				fm.hdrDirty.Store(true)
			}
			return fmt.Errorf("storage: syncing pages before header update: %w", err)
		}
		fm.metrics.noteFsync()
	}
	if err := fm.writeHeader(numPages); err != nil {
		fm.meta = old
		if hdr {
			fm.hdrDirty.Store(true)
		}
		return err
	}
	fm.growView()
	return nil
}

// Sync makes everything — page data, header, metadata — durable: it
// flushes any deferred header update (data synced first, as always) and
// then syncs the header write itself. The WAL checkpoint protocol calls
// this before discarding a batch's log records.
func (fm *FileManager) Sync() error {
	if err := fm.Flush(); err != nil {
		return err
	}
	if err := fm.f.Sync(); err != nil {
		return fmt.Errorf("storage: syncing: %w", err)
	}
	fm.metrics.noteFsync()
	return nil
}

// ReadMeta implements DiskManager.
func (fm *FileManager) ReadMeta() ([]byte, error) {
	return append([]byte(nil), fm.meta...), nil
}

// Stats implements DiskManager.
func (fm *FileManager) Stats() IOStats { return fm.stats.snapshot() }

// ResetStats implements DiskManager.
func (fm *FileManager) ResetStats() { fm.stats.reset() }

// Close implements DiskManager, flushing any deferred header update
// first.
func (fm *FileManager) Close() error {
	if err := fm.Sync(); err != nil {
		_ = fm.closeFile() // the sync failure is the one worth reporting
		return err
	}
	return fm.closeFile()
}

package buffer

import (
	"fmt"
	"slices"
)

// PageSource supplies page contents on buffer misses. It is satisfied by
// the disk managers of internal/storage; declaring it here keeps the
// dependency pointing from storage to buffer only at the call site.
type PageSource interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// ReadPage fills dst (of PageSize bytes) with the page's contents.
	ReadPage(page int, dst []byte) error
}

// PageSink receives dirty-page write-backs. The storage disk managers
// satisfy it; a pool with no sink attached rejects dirty-page operations
// rather than losing writes.
type PageSink interface {
	// WritePage persists the page's contents.
	WritePage(page int, data []byte) error
}

// Pool is a page buffer serving page contents from a PageSource — the
// database buffer pool the paper assumes around the R-tree. Replacement
// decisions delegate to a PoolPolicy (LRU by default; see NewPoolWith).
// Every miss costs one PageSource read, which is the "disk access" the
// paper's EDT metric counts.
//
// The read path treats pages as immutable, matching the paper's
// query-only experiments. The update path adds dirty-page tracking on
// top: Put installs a page as resident and ahead of the source,
// FlushDirty writes such pages back to the attached PageSink in page order,
// and a fault that must evict a dirty victim writes it back first (the
// write-back failing fails the fault — a dirty page is never silently
// dropped). Crash atomicity is not the pool's job: callers WAL-log a
// batch before putting its pages, so a write-back at any moment is
// redo-covered.
//
// Pool has no lock: it serves one goroutine at a time, is the only pool
// that takes writes, and is the reference the oracle tests compare
// against. Concurrent readers use ShardedPool, which stripes this core's
// read side under per-shard mutexes (one shard, NewShardedPool(…, 1), is
// one buffer behind one lock).
type Pool struct {
	src    PageSource
	sink   PageSink
	policy PoolPolicy
	frames [][]byte
	free   [][]byte // recycled frames from evictions

	dirty []bool // page -> contents ahead of the source
	// dirtyList holds every dirty page at least once, unordered. Entries
	// of pages cleaned since (a victim written back, a partial flush) stay
	// until the last dirty page is cleaned.
	dirtyList []int
	nDirty    int

	// readFailures counts source reads that returned an error. Failed
	// reads still count as misses (a physical read was issued) but leave
	// no frame resident, so callers watching for degraded storage can
	// tell "cold buffer" apart from "sick disk".
	readFailures uint64
	// failedWrites counts sink writes that returned an error. The page
	// stays resident and dirty, so no data is lost; the operation that
	// needed the write-back surfaces the error.
	failedWrites uint64
	metrics      *Metrics
}

// SetMetrics attaches an obs mirror: buffer events flow to the mirror's
// registry alongside the pool's own counters. Nil detaches.
func (p *Pool) SetMetrics(m *Metrics) {
	p.metrics = m
	p.policy.SetMetrics(m)
}

func (p *Pool) noteReadFailure() {
	p.readFailures++
	p.metrics.onReadFailure()
}

func (p *Pool) noteFailedWrite() {
	p.failedWrites++
	p.metrics.onWriteFailure()
}

// NewPool returns an LRU pool of the given capacity (in pages) over
// pages [0, numPages) of src.
func NewPool(src PageSource, capacity, numPages int) *Pool {
	return NewPoolWith(src, capacity, numPages, func(capacity, numPages int) PoolPolicy {
		return NewLRU(capacity, numPages)
	})
}

// NewPoolWith returns a pool whose replacement decisions are made by the
// policy the factory constructs (see FactoryFor for the built-in names).
func NewPoolWith(src PageSource, capacity, numPages int, factory PolicyFactory) *Pool {
	p := &Pool{
		src:    src,
		policy: factory(capacity, numPages),
		frames: make([][]byte, numPages),
		dirty:  make([]bool, numPages),
	}
	p.policy.SetOnEvict(func(page int) {
		if p.dirty[page] {
			// Every eviction point writes the victim back first; a dirty
			// page reaching here means the write-back protocol was
			// bypassed and its contents are about to be lost.
			panic(fmt.Sprintf("buffer: evicting dirty page %d", page))
		}
		p.free = append(p.free, p.frames[page])
		p.frames[page] = nil
	})
	return p
}

// SetSink attaches the write-back target for dirty pages; nil detaches.
func (p *Pool) SetSink(sink PageSink) { p.sink = sink }

// Grow extends the pool's page-number space to numPages (no-op if not
// larger). Capacity is unchanged. The update path calls this when node
// splits allocate pages past the tree's original extent.
func (p *Pool) Grow(numPages int) {
	if numPages <= len(p.frames) {
		return
	}
	extra := numPages - len(p.frames)
	p.frames = append(p.frames, make([][]byte, extra)...)
	p.dirty = append(p.dirty, make([]bool, extra)...)
	p.policy.Grow(numPages)
}

// Get returns the contents of page, reading it from the source on a miss.
// The returned slice aliases the buffer frame: it is valid until the page
// is evicted and must not be modified.
func (p *Pool) Get(page int) ([]byte, error) {
	frame, _, err := p.fetch(page)
	return frame, err
}

// View runs fn on the frame holding page, reading the page from the
// source on a miss, and reports the access's attribution: whether the
// page was resident and how many dirty victims the miss had to write
// back. The frame is lent, not given: fn must not modify or retain it
// and must not call the pool, and the next pool operation may recycle
// it. fn is not called when the access fails.
func (p *Pool) View(page int, fn func(frame []byte)) (AccessInfo, error) {
	frame, info, err := p.fetch(page)
	if err == nil {
		fn(frame)
	}
	return info, err
}

// fetch is the one read access behind Get and View: a hit touches the
// policy, a miss writes a dirty victim back, faults the page in and
// counts one source read.
func (p *Pool) fetch(page int) ([]byte, AccessInfo, error) {
	if page < 0 || page >= len(p.frames) {
		return nil, AccessInfo{}, fmt.Errorf("buffer: page %d outside [0,%d)", page, len(p.frames))
	}
	if p.policy.Contains(page) && p.frames[page] != nil {
		p.policy.Access(page)
		return p.frames[page], AccessInfo{Hit: true}, nil
	}
	wrote, err := p.writeBackVictim()
	info := AccessInfo{}
	if wrote {
		info.WriteBacks = 1
	}
	if err != nil {
		return nil, info, err
	}
	p.policy.Access(page)
	frame := p.takeFrame()
	if err := p.src.ReadPage(page, frame); err != nil {
		// Back out the fault so a failed read never leaves a garbage
		// frame resident. The source error stays in the chain so the
		// storage layer's fault classification (transient vs permanent)
		// survives the trip through the pool.
		p.noteReadFailure()
		p.policy.Remove(page)
		p.free = append(p.free, frame)
		return nil, info, fmt.Errorf("buffer: reading page %d: %w", page, err)
	}
	p.frames[page] = frame
	return frame, info, nil
}

func (p *Pool) takeFrame() []byte {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	//lint:allow hotalloc frame allocation is the one-time cost of growing the buffer
	return make([]byte, p.src.PageSize())
}

// The methods below are Get's and Pin's fault paths split into phases
// for ShardedPool, which runs each phase under its shard mutex and the
// source read between them with no lock held: probe the cache (tryGet),
// read src, then commit the fault (install) or back it out
// (failedFault); preparePin, installPinned and failedPin are the same
// three steps for Pin. A pool driven this way is never Put to, so no
// page is dirty and an install may evict freely — but install and
// preparePin still peek the eviction victim where fetch and Pin do
// (writeBackVictim): a peek is part of the access sequence on Clock-Pro,
// which does its hand work there, and one shard must stay
// access-for-access identical to Pool.

// tryGet returns the frame if page is resident, counting a hit; on a miss
// it performs no accounting, leaving the fault to the caller. Pages being
// concurrently pinned (resident but frameless) report as missing so
// callers route through the fault path.
func (p *Pool) tryGet(page int) ([]byte, bool, error) {
	if page < 0 || page >= len(p.frames) {
		return nil, false, fmt.Errorf("buffer: page %d outside [0,%d)", page, len(p.frames))
	}
	if !p.policy.Contains(page) || p.frames[page] == nil {
		return nil, false, nil
	}
	p.policy.Access(page) // resident: counts the hit and touches recency
	return p.frames[page], true, nil
}

// install commits a successful fault: counts the miss (evicting if
// needed) and copies data into a frame. If the page became resident
// while the source read was in flight, this fault lost a duplicate-fault
// race: it counts a hit and the winner's frame, which holds the same
// source bytes, stays as it is.
func (p *Pool) install(page int, data []byte) {
	p.dirtyVictim() // fetch's peek; the victim is never dirty here
	if p.policy.Access(page) {
		return
	}
	frame := p.takeFrame()
	copy(frame, data)
	p.frames[page] = frame
}

// failedFault accounts for a fault whose source read failed: the miss
// still counts (a physical read was issued) but nothing becomes
// resident. The returned error matches Get's wrapping.
func (p *Pool) failedFault(page int, err error) error {
	p.policy.NoteMiss(page)
	p.noteReadFailure()
	return fmt.Errorf("buffer: reading page %d: %w", page, err)
}

// preparePin pins the page slot and reports whether the caller must read
// its contents (it was not resident). See Pin for single-step use.
func (p *Pool) preparePin(page int) (needRead bool, err error) {
	if page < 0 || page >= len(p.frames) {
		return false, fmt.Errorf("buffer: page %d outside [0,%d)", page, len(p.frames))
	}
	if p.policy.Pinned(page) {
		return false, nil
	}
	resident := p.policy.Contains(page)
	if !resident {
		p.dirtyVictim() // Pin's peek; the victim is never dirty here
	}
	if err := p.policy.Pin(page); err != nil {
		return false, err
	}
	return !resident, nil
}

// installPinned stores the contents of a freshly pinned page.
func (p *Pool) installPinned(page int, data []byte) {
	if p.frames[page] == nil {
		p.frames[page] = p.takeFrame()
	}
	copy(p.frames[page], data)
}

// failedPin backs out preparePin after a failed source read, matching
// Pin's error wrapping.
func (p *Pool) failedPin(page int, err error) error {
	p.noteReadFailure()
	p.policy.Unpin(page)
	p.policy.Remove(page)
	return fmt.Errorf("buffer: pinning page %d: %w", page, err)
}

// Pin makes page permanently resident (reading it if absent).
func (p *Pool) Pin(page int) error {
	if p.policy.Pinned(page) {
		return nil
	}
	resident := p.policy.Contains(page)
	if !resident {
		if _, err := p.writeBackVictim(); err != nil {
			return err
		}
	}
	if err := p.policy.Pin(page); err != nil {
		return err
	}
	if !resident {
		frame := p.takeFrame()
		if err := p.src.ReadPage(page, frame); err != nil {
			p.noteReadFailure()
			p.policy.Unpin(page)
			p.policy.Remove(page)
			p.free = append(p.free, frame)
			return fmt.Errorf("buffer: pinning page %d: %w", page, err)
		}
		p.frames[page] = frame
	}
	return nil
}

// FailedReads returns how many source reads errored. These reads count
// as misses but deliver no page.
func (p *Pool) FailedReads() uint64 { return p.readFailures }

// FailedWrites returns how many sink write-backs errored. The pages
// stayed resident and dirty, so nothing was lost — but the storage
// underneath is sick and the operations that needed the write-backs
// failed.
func (p *Pool) FailedWrites() uint64 { return p.failedWrites }

// DirtyPages returns how many resident pages are ahead of the source.
func (p *Pool) DirtyPages() int { return p.nDirty }

// Put installs data as the contents of page, resident and dirty — the
// update path's entry point after its batch is WAL-committed. The page
// becomes most recently used; no read miss is counted (no physical read
// happens). Installing into a full pool may evict, writing a dirty
// victim back first.
func (p *Pool) Put(page int, data []byte) error {
	if page < 0 || page >= len(p.frames) {
		return fmt.Errorf("buffer: page %d outside [0,%d)", page, len(p.frames))
	}
	if len(data) != p.src.PageSize() {
		return fmt.Errorf("buffer: put of %d bytes != page size %d", len(data), p.src.PageSize())
	}
	if !p.policy.Contains(page) {
		if _, err := p.writeBackVictim(); err != nil {
			return err
		}
	}
	p.policy.Install(page)
	if p.frames[page] == nil {
		p.frames[page] = p.takeFrame()
	}
	copy(p.frames[page], data)
	p.setDirty(page)
	return nil
}

// FlushDirty writes every dirty page back to the sink in ascending page
// order (deterministic for a given dirty set) and clears the dirty
// flags. On a write failure it stops: the failed page and everything
// after it stay dirty and resident, and the error surfaces. Callers
// ordering a WAL commit call this after logging, so a partial flush is
// always redo-covered.
func (p *Pool) FlushDirty() error {
	if p.nDirty == 0 {
		return nil
	}
	slices.Sort(p.dirtyList)
	for i, page := range p.dirtyList {
		if !p.dirty[page] {
			continue // cleaned earlier (write-back on eviction) or a duplicate entry
		}
		if err := p.flushPage(page); err != nil {
			rest := p.dirtyList[i:]
			n := copy(p.dirtyList, rest)
			p.dirtyList = p.dirtyList[:n]
			return err
		}
	}
	return nil // cleaning the last dirty page emptied dirtyList
}

func (p *Pool) setDirty(page int) {
	if p.dirty[page] {
		return
	}
	p.dirty[page] = true
	p.nDirty++
	p.dirtyList = append(p.dirtyList, page)
	p.metrics.onDirty()
}

func (p *Pool) clearDirty(page int) {
	if !p.dirty[page] {
		return
	}
	p.dirty[page] = false
	p.nDirty--
	if p.nDirty == 0 {
		p.dirtyList = p.dirtyList[:0] // every entry left is a cleaned page
	}
}

// flushPage writes one dirty page to the sink and clears its flag. A
// failed write (or no sink to write to) counts a failed write and leaves
// the page dirty and resident.
func (p *Pool) flushPage(page int) error {
	var err error
	if p.sink == nil {
		err = fmt.Errorf("buffer: no write-back sink attached")
	} else {
		err = p.sink.WritePage(page, p.frames[page])
	}
	if err != nil {
		p.noteFailedWrite()
		return fmt.Errorf("buffer: writing back page %d: %w", page, err)
	}
	p.metrics.onWriteBack()
	p.clearDirty(page)
	return nil
}

// dirtyVictim returns the page the next capacity eviction would drop if
// that page is dirty, else -1 (the pool isn't full or the victim is
// clean, so an install may evict freely).
func (p *Pool) dirtyVictim() int {
	if !p.policy.Full() {
		return -1
	}
	v, ok := p.policy.Victim()
	if !ok || !p.dirty[v] {
		return -1
	}
	return v
}

// writeBackVictim cleans the page the next capacity eviction would drop,
// so the eviction (inside LRU.Access/Install/Pin) never loses a dirty
// page, and reports whether a dirty victim was actually written back.
// Pool calls it immediately before any operation that may evict.
func (p *Pool) writeBackVictim() (wrote bool, err error) {
	v := p.dirtyVictim()
	if v < 0 {
		return false, nil
	}
	if err := p.flushPage(v); err != nil {
		return false, err
	}
	return true, nil
}

// Unpin returns a pinned page to replacement management.
func (p *Pool) Unpin(page int) { p.policy.Unpin(page) }

// Stats returns cumulative hits, misses, and evictions. Misses equal the
// number of source reads issued.
func (p *Pool) Stats() (hits, misses, evictions uint64) { return p.policy.Stats() }

// ResetStats zeroes the counters without disturbing contents.
func (p *Pool) ResetStats() {
	p.policy.ResetStats()
	p.readFailures = 0
	p.failedWrites = 0
}

// HitRatio returns the cumulative hit ratio.
func (p *Pool) HitRatio() float64 { return p.policy.HitRatio() }

// Capacity returns the pool capacity in pages.
func (p *Pool) Capacity() int { return p.policy.Capacity() }

// Resident returns the number of pages currently buffered.
func (p *Pool) Resident() int { return p.policy.Len() }

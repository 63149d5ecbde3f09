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
// FlushDirty writes such pages back to the attached PageSink in page
// order, and an operation that may evict from a full pool flushes first
// (makeRoom; the write-back failing fails the operation — a dirty page
// is never silently dropped). Crash atomicity is not the pool's job:
// callers WAL-log a batch before putting its pages, so a write-back at
// any moment is redo-covered.
//
// Pool has no lock: it serves one goroutine at a time, is the only pool
// that takes writes, and is the reference the oracle tests compare
// against. Concurrent readers use ShardedPool, which runs this pool's
// fault phases under per-shard mutexes (one shard, NewShardedPool(…, 1),
// is one buffer behind one lock).
type Pool struct {
	src    PageSource
	sink   PageSink
	policy PoolPolicy
	frames [][]byte // page -> its frame; non-nil exactly when the policy holds the page
	free   [][]byte // spare frames: evicted pages' and failed faults'

	dirty     []bool // page -> contents ahead of the source
	dirtyList []int  // the dirty pages, each once, unordered

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
	return NewPoolWith(src, capacity, numPages, nil)
}

// NewPoolWith returns a pool whose replacement decisions are made by the
// policy the factory constructs (see FactoryFor for the built-in names;
// nil is LRU).
func NewPoolWith(src PageSource, capacity, numPages int, factory PolicyFactory) *Pool {
	var policy PoolPolicy
	if factory == nil {
		policy = NewLRU(capacity, numPages)
	} else {
		policy = factory(capacity, numPages)
	}
	p := &Pool{
		src:    src,
		policy: policy,
		frames: make([][]byte, numPages),
		dirty:  make([]bool, numPages),
	}
	p.policy.SetOnEvict(func(page int) {
		if p.dirty[page] {
			// Every operation that may evict runs makeRoom first; a dirty
			// page reaching here means it was bypassed and the page's
			// contents are about to be lost.
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
// page was resident and how many dirty pages the miss wrote back to make
// room. fn's hit argument is AccessInfo.Hit, told to fn as well: true
// when the page was resident, false when this access just read it. The
// frame is lent, not given: fn must not modify or retain it and must not
// call the pool, and the next pool operation may recycle it. fn is not
// called when the access fails.
func (p *Pool) View(page int, fn func(frame []byte, hit bool)) (AccessInfo, error) {
	frame, info, err := p.fetch(page)
	if err == nil {
		fn(frame, info.Hit)
	}
	return info, err
}

// fetch is the one read access behind Get and View.
func (p *Pool) fetch(page int) ([]byte, AccessInfo, error) {
	frame, hit, err := p.probe(page, false)
	if hit || err != nil {
		return frame, AccessInfo{Hit: hit}, err
	}
	return p.fault(page, frame, false)
}

// Pin makes page permanently resident (reading it if absent).
func (p *Pool) Pin(page int) error {
	frame, done, err := p.probe(page, true)
	if done || err != nil {
		return err
	}
	_, _, err = p.fault(page, frame, true)
	return err
}

// Unpin returns a pinned page to replacement management; a page outside
// the page space is ignored.
func (p *Pool) Unpin(page int) {
	if p.checkPage(page) == nil {
		p.policy.Unpin(page)
	}
}

// The fault, written once. Every access that may need the source — Get,
// View and Pin, on Pool and on ShardedPool — is three phases in order:
//
//	probe   the bounds check; a resident page is touched (or pinned) and
//	        served, and the access is over. Otherwise probe hands out a
//	        spare frame to read into.
//	read    src.ReadPage into that frame. The caller issues it, so
//	        ShardedPool can do so with no lock held.
//	commit  the page becomes resident in the frame that was read: the
//	        policy counts the miss and evicts if it must, the pool keeps
//	        the frame. A read that failed, or whose commit does, is
//	        counted and changes nothing else.
//
// ShardedPool takes its shard mutex around probe and around commit,
// which therefore do no I/O (TestShardedHitNotBlockedByParkedRead holds
// them to it). Pool runs the phases back to back (fault) and, being the
// one pool that can hold dirty pages, writes them back between read and
// commit when the commit may evict (makeRoom). One rule accounts for all
// of it: a miss is a source read issued, whatever became of it.

// checkPage is the bounds check of every operation that names a page.
func (p *Pool) checkPage(page int) error { return checkPageIn(page, len(p.frames)) }

// checkPageIn rejects a page outside [0, numPages). The error is built
// out of line so that the check itself inlines into every access.
func checkPageIn(page, numPages int) error {
	if page < 0 || page >= numPages {
		return outsideErr(page, numPages)
	}
	return nil
}

//go:noinline
func outsideErr(page, numPages int) error {
	return fmt.Errorf("buffer: page %d outside [0,%d)", page, numPages)
}

// probe is phase one. A resident page ends the access here: a read
// counts its hit and touches recency, a pin takes the page out of
// replacement (failing when every slot is pinned), and the resident
// frame is returned with done set. For an absent page the frame returned
// is a spare one for the caller to read the source into.
func (p *Pool) probe(page int, pin bool) (frame []byte, done bool, err error) {
	if err := p.checkPage(page); err != nil {
		return nil, false, err
	}
	if !p.policy.Contains(page) {
		return p.takeFrame(), false, nil
	}
	if pin {
		err = p.policy.Pin(page)
	} else {
		p.policy.Access(page)
	}
	return p.frames[page], true, err
}

func (p *Pool) takeFrame() []byte {
	if n := len(p.free); n > 0 {
		f := p.free[n-1]
		p.free = p.free[:n-1]
		return f
	}
	return make([]byte, p.src.PageSize())
}

// fault is phases two and three for the pool that serves one goroutine:
// read, write the dirty pages back if the commit may evict, commit.
func (p *Pool) fault(page int, frame []byte, pin bool) ([]byte, AccessInfo, error) {
	var info AccessInfo
	readErr := p.src.ReadPage(page, frame)
	if readErr == nil {
		var err error
		if info.WriteBacks, err = p.makeRoom(); err != nil {
			// The read lost its commit: still a miss, nothing evicted.
			p.policy.NoteMiss(page)
			p.free = append(p.free, frame)
			return nil, info, err
		}
	}
	frame, err := p.commit(page, frame, readErr, pin)
	return frame, info, err
}

// commit is phase three: frame is probe's spare frame and readErr what
// reading the source into it returned. On success the page is resident
// in that very frame — nothing is copied — and the policy has counted
// the miss, evicting if the pool was full (a clean page: nothing is
// dirty under ShardedPool, and Pool has just run makeRoom). A read that
// failed, or a pin that finds every slot taken, counts the miss the read
// was, keeps the frame as a spare, evicts nothing and leaves the policy
// otherwise untouched.
func (p *Pool) commit(page int, frame []byte, readErr error, pin bool) ([]byte, error) {
	err := readErr
	switch {
	case err != nil:
		// The source error stays in the chain so the storage layer's
		// fault classification (transient vs permanent) survives the
		// trip through the pool.
		p.noteReadFailure()
		err = fmt.Errorf("buffer: reading page %d: %w", page, err)
	case p.policy.Contains(page):
		// Only under ShardedPool: another fault of this page committed
		// while this one was reading. Its frame holds the same source
		// bytes and stays (a pin pins it); this read still counts, and
		// its frame is dropped — the race is rare, and evictions keep
		// the spares stocked.
		p.policy.NoteMiss(page)
		if pin {
			err = p.policy.Pin(page)
		}
		return p.frames[page], err
	case pin:
		err = p.policy.Pin(page)
	default:
		p.policy.Access(page)
	}
	if err != nil {
		p.policy.NoteMiss(page)
		p.free = append(p.free, frame)
		return nil, err
	}
	p.frames[page] = frame
	return frame, nil
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
func (p *Pool) DirtyPages() int { return len(p.dirtyList) }

// Put installs data as the contents of page, resident and dirty — the
// update path's entry point after its batch is WAL-committed. The page
// becomes most recently used; no read miss is counted (no physical read
// happens). Installing an absent page into a full pool evicts, after
// the dirty pages are written back.
func (p *Pool) Put(page int, data []byte) error {
	if err := p.checkPage(page); err != nil {
		return err
	}
	if len(data) != p.src.PageSize() {
		return fmt.Errorf("buffer: put of %d bytes != page size %d", len(data), p.src.PageSize())
	}
	if !p.policy.Contains(page) {
		if _, err := p.makeRoom(); err != nil {
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
	slices.Sort(p.dirtyList)
	for i, page := range p.dirtyList {
		if err := p.flushPage(page); err != nil {
			rest := p.dirtyList[i:]
			n := copy(p.dirtyList, rest)
			p.dirtyList = p.dirtyList[:n]
			return err
		}
	}
	p.dirtyList = p.dirtyList[:0]
	return nil
}

func (p *Pool) setDirty(page int) {
	if p.dirty[page] {
		return
	}
	p.dirty[page] = true
	p.dirtyList = append(p.dirtyList, page)
	p.metrics.onDirty()
}

// flushPage writes one dirty page to the sink and clears its flag;
// FlushDirty, its only caller, keeps dirtyList in step. A failed write
// (or no sink to write to) counts a failed write and leaves the page
// dirty and resident.
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
	p.dirty[page] = false
	return nil
}

// makeRoom runs before every policy call that may evict (the commit of
// a fault on Pool, Put of an absent page). An eviction drops a frame without
// writing it, so when the pool is full and holds dirty pages they are
// all written back first, in page order, and the eviction can only drop
// a clean page. Writing early is always legal: every dirty page is
// redo-covered (its batch was in the WAL before Put), and the commit
// that dirtied it ends with FlushDirty anyway. It returns how many pages
// it wrote; on a failed write the rest stay dirty and resident and the
// caller's operation fails.
func (p *Pool) makeRoom() (wrote int, err error) {
	if len(p.dirtyList) == 0 || !p.policy.Full() {
		return 0, nil
	}
	before := len(p.dirtyList)
	err = p.FlushDirty()
	return before - len(p.dirtyList), err
}

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

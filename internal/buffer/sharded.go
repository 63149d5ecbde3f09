package buffer

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// PagePool is the buffer-pool contract the storage layer programs
// against: serve page contents with hit/miss accounting, pin pages,
// track dirty pages, and write them back. Pool (single-goroutine, no
// lock) and ShardedPool (that core striped under locks, the only pool
// safe for concurrent use) both satisfy it, so a paged tree can swap
// pools without caring which.
//
// View is how a query reads a page: it lends the frame to a callback
// instead of handing out bytes, so a hit costs a lookup — no allocation,
// no copy. The loan ends when the callback returns; the callback must
// not modify or retain the frame and must not call the pool (ShardedPool
// runs it under a shard mutex), and callers that read several pages
// finish with one before asking for the next. View also reports the
// access's attribution (hit or miss, dirty write-backs) for the flight
// recorder.
//
// Get is View for callers that need the bytes past the access. Its
// ownership contract is the weaker of the two implementations': the
// returned slice must not be modified, and is only guaranteed valid
// until the next pool operation (Pool returns an alias that lives until
// eviction; ShardedPool returns a copy the caller owns).
type PagePool interface {
	Get(page int) ([]byte, error)
	View(page int, fn func(frame []byte)) (AccessInfo, error)
	Pin(page int) error
	Unpin(page int)
	Put(page int, data []byte) error
	FlushDirty() error
	Grow(numPages int)
	SetSink(sink PageSink)
	SetMetrics(m *Metrics)
	Stats() (hits, misses, evictions uint64)
	ResetStats()
	HitRatio() float64
	Capacity() int
	Resident() int
	DirtyPages() int
	FailedReads() uint64
	FailedWrites() uint64
}

var (
	_ PagePool = (*Pool)(nil)
	_ PagePool = (*ShardedPool)(nil)
)

// ShardedPool is a concurrent page pool striped across independently
// locked shards: page p lives in shard p mod n as local page p div n,
// with the capacity split round-robin. Hits on pages in different
// shards never contend — each shard is a private Pool (any PoolPolicy)
// under its own mutex, so the hit path is one uncontended lock, one
// policy update, and the caller's read of the frame (View) — plus one
// page copy for callers that keep the bytes (Get).
//
// No lock is ever held across source or sink I/O:
//
//   - A fault reads the source with no lock held, then commits under
//     the shard mutex. Concurrent faults of one page issue duplicate
//     reads; the losing install counts a hit and refreshes the frame in
//     place only if the page's dirty version is unchanged — a frame a
//     concurrent Put dirtied (or dirtied and already flushed) is ahead
//     of the stale source bytes and keeps its contents. Single-threaded
//     runs never take this path, so shards=1 accounting is
//     bit-identical to Pool's.
//   - A dirty victim is copied out under the shard mutex, written with
//     no lock held, and committed with its dirty version (wroteBack):
//     if the page was re-dirtied during the write, the flag stays set
//     and the fresher contents get written later. The transiently stale
//     sink state is safe for the same reason Pool's write-backs are:
//     callers WAL-log batches before dirtying pages, so any write-back
//     order is redo-covered.
//   - Write-backs of one shard serialize on a dedicated per-shard
//     write-back mutex (wbMu) held from copy through sink write to
//     commit. Without it, an eviction write-back and a concurrent
//     FlushDirty of the same page could reach the sink in opposite order
//     and persist the older contents last — a lost update no crash
//     recovery would repair. Hits and faults that need no write-back
//     never touch this mutex.
//   - The PR 7 no-steal contract holds per shard: installClean runs the
//     victim peek and the install under one continuous mutex hold, so a
//     dirty page can never be the eviction victim.
//
// The source (and sink, if attached) must be safe for concurrent calls
// on distinct pages — the file-backed and in-memory disk managers are.
// FlushDirty still writes in ascending global page order; pages being
// re-dirtied concurrently may remain dirty when it returns.
type ShardedPool struct {
	shards   []*poolShard
	n        int
	capacity int
	pageSize int
	numPages atomic.Int64 // global page-space bound; grown under all shard locks
	bufs     sync.Pool    // page-size staging buffers for faults and write-backs
}

// poolShard is one lock stripe: a private Pool over the shard's local
// page space.
type poolShard struct {
	mu sync.Mutex
	// wbMu serializes this shard's write-backs end to end — copy under
	// mu, sink write with only wbMu held, commit — so two write-backs of
	// one page can never reach the sink out of dirty-version order.
	// Always acquired before mu, never the other way around.
	wbMu sync.Mutex
	pool *Pool
}

// shardIO routes a shard pool's local-space I/O to the global source and
// sink. src is immutable after construction; sink is swapped via
// Pool.SetSink under the shard mutex and read under it before each
// unlocked write.
type shardIO struct {
	src      PageSource
	shard, n int
}

func (io shardIO) PageSize() int { return io.src.PageSize() }

func (io shardIO) ReadPage(local int, dst []byte) error {
	return io.src.ReadPage(local*io.n+io.shard, dst)
}

// shardSink maps a shard pool's local write-backs to global pages.
type shardSink struct {
	sink     PageSink
	shard, n int
}

func (s shardSink) WritePage(local int, data []byte) error {
	return s.sink.WritePage(local*s.n+s.shard, data)
}

// NewShardedPool returns an LRU-per-shard pool of the given total
// capacity (in pages) over pages [0, numPages) of src, striped across
// the given number of shards.
func NewShardedPool(src PageSource, capacity, numPages, shards int) *ShardedPool {
	return NewShardedPoolWith(src, capacity, numPages, shards, func(capacity, numPages int) PoolPolicy {
		return NewLRU(capacity, numPages)
	})
}

// NewShardedPoolWith is NewShardedPool with each shard's replacement
// policy built by factory (see FactoryFor). shards is clamped to
// [1, capacity] so every shard has at least one frame.
func NewShardedPoolWith(src PageSource, capacity, numPages, shards int, factory PolicyFactory) *ShardedPool {
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	s := &ShardedPool{
		shards:   make([]*poolShard, shards),
		n:        shards,
		capacity: capacity,
		pageSize: src.PageSize(),
	}
	s.numPages.Store(int64(numPages))
	s.bufs.New = func() any { return make([]byte, s.pageSize) }
	for i := 0; i < shards; i++ {
		s.shards[i] = &poolShard{
			pool: NewPoolWith(shardIO{src: src, shard: i, n: shards},
				shardCapacity(capacity, shards, i), shardPages(numPages, shards, i), factory),
		}
	}
	return s
}

// Shards returns the shard count.
func (s *ShardedPool) Shards() int { return s.n }

func (s *ShardedPool) locate(page int) (*poolShard, int) {
	return s.shards[page%s.n], page / s.n
}

func (s *ShardedPool) getBuf() []byte  { return s.bufs.Get().([]byte) }
func (s *ShardedPool) putBuf(b []byte) { s.bufs.Put(b) } //lint:allow hotalloc sync.Pool boxing; cheaper than the page copy it recycles

// boundsErr reports a page outside the pool's page space.
func (s *ShardedPool) boundsErr(page int) error {
	return fmt.Errorf("buffer: page %d outside [0,%d)", page, s.numPages.Load())
}

// globalize annotates a shard-local error with the global page number.
// With one shard local and global numbering coincide, so errors stay
// byte-identical to Pool's.
func (s *ShardedPool) globalize(err error, page int) error {
	if err == nil || s.n == 1 {
		return err
	}
	return fmt.Errorf("%w (global page %d)", err, page)
}

// Get returns a copy of the page contents, faulting it in on a miss.
// The returned slice is owned by the caller.
func (s *ShardedPool) Get(page int) ([]byte, error) {
	var out []byte
	//lint:allow hotalloc View does not retain fn, so the closure stays on the stack (TestGetAllocatesOnlyItsCopy)
	_, err := s.View(page, func(frame []byte) {
		out = make([]byte, len(frame)) //lint:allow hotalloc the returned page copy is Get's ownership contract
		copy(out, frame)
	})
	return out, err
}

// View runs fn on the contents of page and reports the access's
// attribution: whether the page was resident in its shard and how many
// dirty victims the fault wrote back. On a hit fn reads the frame itself
// under the shard mutex, so it sees one whole version of the page however
// Puts and evictions interleave; on a miss it reads the fault's staging
// buffer once the page is installed, with no lock held. Either way
// nothing is allocated or copied for the caller, so fn must be brief,
// must not modify or retain the frame, and must not call the pool (the
// shard mutex is not reentrant). fn is not called when the access fails.
func (s *ShardedPool) View(page int, fn func(frame []byte)) (AccessInfo, error) {
	if page < 0 || int64(page) >= s.numPages.Load() {
		return AccessInfo{}, s.boundsErr(page)
	}
	sh, local := s.locate(page)
	hit, ver, err := sh.viewResident(local, fn)
	if hit || err != nil {
		return AccessInfo{Hit: hit}, s.globalize(err, page)
	}
	return s.fault(sh, page, local, ver, fn)
}

// viewResident runs fn on local's frame if the page is resident, counting
// the hit; otherwise it reports the page's dirty version at miss time,
// install's guard against a Put racing the fault's source read. The
// deferred unlock keeps a panicking fn from wedging the shard.
func (sh *poolShard) viewResident(local int, fn func(frame []byte)) (hit bool, ver uint32, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	frame, ok, err := sh.pool.tryGet(local)
	if err != nil {
		return false, 0, err
	}
	if !ok {
		return false, sh.pool.dirtyVer[local], nil
	}
	fn(frame)
	return true, 0, nil
}

// fault reads page from the source with no lock held, installs it, and
// runs fn on the staging buffer — the bytes just installed, private to
// this fault, so no lock is needed to read them. ver is the page's dirty
// version at miss time; install refuses bytes a concurrent Put moved the
// page past.
func (s *ShardedPool) fault(sh *poolShard, page, local int, ver uint32, fn func(frame []byte)) (AccessInfo, error) {
	buf := s.getBuf()
	defer s.putBuf(buf)
	if err := sh.pool.src.ReadPage(local, buf); err != nil {
		sh.mu.Lock()
		err = sh.pool.failedFault(local, err)
		sh.mu.Unlock()
		return AccessInfo{}, s.globalize(err, page)
	}
	current := false
	//lint:allow hotalloc miss-path closure: a fault already pays a source page read, and the hit path allocates nothing
	wrote, err := s.installClean(sh, func() { current = sh.pool.install(local, buf, ver) })
	if err != nil {
		return AccessInfo{WriteBacks: wrote}, s.globalize(err, page)
	}
	if !current {
		// The page was Put, flushed and evicted again during the read, so
		// buf is behind the source: start the access over.
		info, err := s.View(page, fn)
		info.WriteBacks += wrote
		return info, err
	}
	fn(buf)
	return AccessInfo{WriteBacks: wrote}, nil
}

// installClean runs install (under the shard mutex) in a state where no
// dirty page can be the eviction victim, writing dirty victims back
// first — the per-shard no-steal protocol — and reports how many it
// wrote back. The victim peek and the install happen under one
// continuous mutex hold, so the dirty set cannot change in between. A
// write-back failure fails the caller's operation; the victim stays
// resident and dirty. Under a steady stream of concurrent Puts to one
// shard the loop may retry, but every iteration writes one page back,
// so the system as a whole makes progress.
func (s *ShardedPool) installClean(sh *poolShard, install func()) (wrote int, err error) {
	buf := s.getBuf()
	defer s.putBuf(buf)
	for {
		sh.mu.Lock()
		v := sh.pool.dirtyVictim()
		if v < 0 {
			install()
			sh.mu.Unlock()
			return wrote, nil
		}
		sh.mu.Unlock()
		ok, err := s.writeBack(sh, v, buf)
		if err != nil {
			return wrote, err
		}
		if ok {
			wrote++
		}
	}
}

// writeBack writes local page of sh to the sink if it is still dirty
// (a concurrent write-back may have cleaned it since the caller looked)
// and reports whether it did. wbMu is held from the copy, through the
// sink write, to the commit, so same-page sink writes of this shard
// (FlushDirty, faults evicting) always land in dirty-version order; the
// state mutex is held only around the copy and the commit, never across
// the write, and the commit goes against the copy's dirty version.
func (s *ShardedPool) writeBack(sh *poolShard, local int, buf []byte) (wrote bool, err error) {
	sh.wbMu.Lock()
	defer sh.wbMu.Unlock()
	sh.mu.Lock()
	ver, ok := sh.pool.copyDirty(local, buf)
	snk := sh.pool.sink
	sh.mu.Unlock()
	if !ok {
		return false, nil
	}
	err = sinkWrite(snk, local, buf) //lint:allow lockcheck ordering same-page sink writes is wbMu's purpose; the state mutex is not held
	sh.mu.Lock()
	err = sh.pool.wroteBack(local, ver, err)
	sh.mu.Unlock()
	return err == nil, err
}

// Pin makes page permanently resident (reading it if absent). Until the
// read completes a concurrent Get of the same page faults it redundantly
// and counts a pinned hit; a clean frame such a fault installs is
// refreshed here, while a frame a concurrent Put moved ahead of the
// source keeps its contents.
func (s *ShardedPool) Pin(page int) error {
	if page < 0 || int64(page) >= s.numPages.Load() {
		return s.boundsErr(page)
	}
	sh, local := s.locate(page)
	var need bool
	var ver uint32
	var perr error
	if _, err := s.installClean(sh, func() { need, ver, perr = sh.pool.preparePin(local) }); err != nil {
		return s.globalize(err, page)
	}
	if perr != nil || !need {
		return s.globalize(perr, page)
	}
	buf := s.getBuf()
	err := sh.pool.src.ReadPage(local, buf)
	if err != nil {
		s.putBuf(buf)
		sh.mu.Lock()
		err = sh.pool.failedPin(local, err)
		sh.mu.Unlock()
		return s.globalize(err, page)
	}
	sh.mu.Lock()
	sh.pool.installPinned(local, buf, ver)
	sh.mu.Unlock()
	s.putBuf(buf)
	return nil
}

// Unpin returns a pinned page to replacement management.
func (s *ShardedPool) Unpin(page int) {
	if page < 0 || int64(page) >= s.numPages.Load() {
		return
	}
	sh, local := s.locate(page)
	sh.mu.Lock()
	sh.pool.Unpin(local)
	sh.mu.Unlock()
}

// Put installs data as the contents of page, resident and dirty — the
// update path's entry point after its batch is WAL-committed. Installing
// into a full shard may evict, writing a dirty victim back first (with
// no lock held; see installClean).
func (s *ShardedPool) Put(page int, data []byte) error {
	if page < 0 || int64(page) >= s.numPages.Load() {
		return s.boundsErr(page)
	}
	if len(data) != s.pageSize {
		return fmt.Errorf("buffer: put of %d bytes != page size %d", len(data), s.pageSize)
	}
	sh, local := s.locate(page)
	var perr error
	// Under installClean's no-dirty-victim guarantee Pool.Put's own
	// victim write-back finds nothing to do, so no I/O runs under mu.
	if _, err := s.installClean(sh, func() { perr = sh.pool.Put(local, data) }); err != nil {
		return s.globalize(err, page)
	}
	return s.globalize(perr, page)
}

// FlushDirty writes every dirty page back to the sink in ascending
// global page order, stopping at the first failure (the failed page and
// everything after stay dirty). Each page goes through writeBack, so hits
// proceed during the flush while same-page write-backs (an eviction
// racing this flush) stay ordered; a page re-dirtied during its write
// stays dirty. Concurrent mutators may dirty pages the snapshot missed —
// FlushDirty guarantees only that pages dirty before the call and not
// re-dirtied during it are clean after.
func (s *ShardedPool) FlushDirty() error {
	var pages []int
	for i, sh := range s.shards {
		sh.mu.Lock()
		for _, local := range sh.pool.dirtySnapshot() {
			pages = append(pages, local*s.n+i)
		}
		sh.mu.Unlock()
	}
	slices.Sort(pages)
	buf := s.getBuf()
	defer s.putBuf(buf)
	for _, page := range pages {
		sh, local := s.locate(page)
		if _, err := s.writeBack(sh, local, buf); err != nil {
			return s.globalize(err, page)
		}
	}
	return nil
}

// Grow extends the pool's page-number space to numPages (no-op if not
// larger). All shard locks are taken (in shard order) so the global
// bound and the per-shard bounds move together.
func (s *ShardedPool) Grow(numPages int) {
	if int64(numPages) <= s.numPages.Load() {
		return
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
	}
	if int64(numPages) > s.numPages.Load() {
		for i, sh := range s.shards {
			sh.pool.Grow(shardPages(numPages, s.n, i))
		}
		s.numPages.Store(int64(numPages))
	}
	for _, sh := range s.shards {
		sh.mu.Unlock()
	}
}

// SetSink attaches the write-back target for dirty pages; nil detaches.
// Each shard sees the sink through a local→global page mapping.
func (s *ShardedPool) SetSink(sink PageSink) {
	for i, sh := range s.shards {
		var shardTarget PageSink
		if sink != nil {
			shardTarget = shardSink{sink: sink, shard: i, n: s.n}
		}
		sh.mu.Lock()
		sh.pool.SetSink(shardTarget)
		sh.mu.Unlock()
	}
}

// SetMetrics attaches an obs mirror: every shard shares the mirror's
// (atomic) counters, with per-level series remapped through the shard
// stride so they report global levels. Nil detaches.
func (s *ShardedPool) SetMetrics(m *Metrics) {
	for i, sh := range s.shards {
		sh.mu.Lock()
		sh.pool.SetMetrics(m.shardView(i, s.n))
		sh.mu.Unlock()
	}
}

// Stats returns cumulative hits, misses, and evictions summed across
// shards. Shards are read one at a time, so a concurrent access may
// land between two shard reads; totals are exact once writers quiesce.
func (s *ShardedPool) Stats() (hits, misses, evictions uint64) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		h, m, e := sh.pool.Stats()
		sh.mu.Unlock()
		hits += h
		misses += m
		evictions += e
	}
	return hits, misses, evictions
}

// ResetStats zeroes the counters without disturbing contents.
func (s *ShardedPool) ResetStats() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.pool.ResetStats()
		sh.mu.Unlock()
	}
}

// HitRatio returns the cumulative hit ratio across shards.
func (s *ShardedPool) HitRatio() float64 {
	h, m, _ := s.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Capacity returns the total pool capacity in pages.
func (s *ShardedPool) Capacity() int { return s.capacity }

// Resident returns the number of pages currently buffered.
func (s *ShardedPool) Resident() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.pool.Resident()
		sh.mu.Unlock()
	}
	return n
}

// DirtyPages returns how many resident pages are ahead of the source.
func (s *ShardedPool) DirtyPages() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.pool.DirtyPages()
		sh.mu.Unlock()
	}
	return n
}

// FailedReads returns how many source reads errored.
func (s *ShardedPool) FailedReads() uint64 {
	var n uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.pool.FailedReads()
		sh.mu.Unlock()
	}
	return n
}

// FailedWrites returns how many sink write-backs errored.
func (s *ShardedPool) FailedWrites() uint64 {
	var n uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.pool.FailedWrites()
		sh.mu.Unlock()
	}
	return n
}

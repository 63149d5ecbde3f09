package buffer

import (
	"fmt"
	"sync"
)

// PagePool is the buffer-pool contract the storage layer reads through:
// serve page contents with hit/miss accounting and pin pages. Pool
// (single-goroutine, no lock) and ShardedPool (that core striped under
// locks, safe for concurrent readers) both satisfy it, so a paged tree's
// query paths do not care which they run on. Writing — Put, FlushDirty,
// Grow, SetSink — is not part of it: only *Pool takes writes.
//
// View is how a query reads a page: it lends the frame to a callback
// instead of handing out bytes, so a hit costs a lookup — no allocation,
// no copy. The loan ends when the callback returns; the callback must
// not modify or retain the frame and must not call the pool (ShardedPool
// runs it under a shard mutex), and callers that read several pages
// finish with one before asking for the next. View also reports the
// access's attribution (hit or miss, dirty pages written back) for the
// flight recorder; AccessInfo.WriteBacks is always 0 from ShardedPool,
// which holds no dirty pages.
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
	SetMetrics(m *Metrics)
	Stats() (hits, misses, evictions uint64)
	ResetStats()
	HitRatio() float64
	Capacity() int
	Resident() int
	FailedReads() uint64
}

var (
	_ PagePool = (*Pool)(nil)
	_ PagePool = (*ShardedPool)(nil)
)

// ShardedPool is the concurrent page pool for readers of an immutable
// source, striped across independently locked shards: page p lives in
// shard p mod n as local page p div n, with the capacity split
// round-robin. Hits on pages in different shards never contend — each
// shard is a private Pool (any PoolPolicy) under its own mutex, so the
// hit path is one uncontended lock, one policy update, and the caller's
// read of the frame (View) — plus one page copy for callers that keep
// the bytes (Get).
//
// It has no write side. Pages never change under it, so nothing is ever
// dirty, an eviction only drops a frame, and two reads of one page
// return the same bytes whenever they happen; a tree that takes updates
// is backed by Pool.
//
// View and Pin are Pool's three fault phases (see pool.go) with the
// shard mutex taken around probe and around commit and never across the
// source read: the read fills a spare frame the fault took from the
// shard under the first lock, and that frame becomes the resident one
// under the second. Concurrent faults of one page issue duplicate reads;
// the one that commits second counts its miss and leaves the first's
// frame alone. Single-threaded runs never take that path, so shards=1
// accounting is bit-identical to Pool's.
//
// The source must be safe for concurrent calls — the file-backed and
// in-memory disk managers are.
type ShardedPool struct {
	shards   []*poolShard
	n        int
	capacity int
	numPages int // global page-space bound
}

// poolShard is one lock stripe: a private Pool over the shard's local
// page space.
type poolShard struct {
	mu   sync.Mutex
	pool *Pool
}

// shardIO routes a shard pool's local-space reads to the global source.
type shardIO struct {
	src      PageSource
	shard, n int
}

func (io shardIO) PageSize() int { return io.src.PageSize() }

func (io shardIO) ReadPage(local int, dst []byte) error {
	return io.src.ReadPage(local*io.n+io.shard, dst)
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
		numPages: numPages,
	}
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

// locate maps a global page to its shard and local page number. The
// mapping only holds inside the global page space, so this is where a
// page outside it is rejected.
func (s *ShardedPool) locate(page int) (sh *poolShard, local int, err error) {
	if err := checkPageIn(page, s.numPages); err != nil {
		return nil, 0, err
	}
	return s.shards[page%s.n], page / s.n, nil
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

// View runs fn on the frame holding page and reports whether the page
// was resident in its shard. fn always reads the resident frame, under
// the shard mutex, so no eviction can recycle it meanwhile: on a hit
// straight away, on a miss once the fault has committed. Nothing is
// allocated or copied for the caller, so fn must be brief, must not
// modify or retain the frame, and must not call the pool (the shard
// mutex is not reentrant). fn is not called when the access fails.
func (s *ShardedPool) View(page int, fn func(frame []byte)) (AccessInfo, error) {
	sh, local, err := s.locate(page)
	if err != nil {
		return AccessInfo{}, err
	}
	frame, hit, err := sh.viewResident(local, fn)
	if hit || err != nil {
		return AccessInfo{Hit: hit}, s.globalize(err, page)
	}
	err = sh.pool.src.ReadPage(local, frame)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	frame, err = sh.pool.commit(local, frame, err, false)
	if err == nil {
		fn(frame)
	}
	return AccessInfo{}, s.globalize(err, page)
}

// viewResident is View's probe: it runs fn on local's frame if the page
// is resident, and otherwise returns the spare frame to read into. The
// deferred unlock keeps a panicking fn from wedging the shard.
func (sh *poolShard) viewResident(local int, fn func(frame []byte)) (frame []byte, hit bool, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	frame, hit, err = sh.pool.probe(local, false)
	if hit {
		fn(frame)
	}
	return frame, hit, err
}

// Pin makes page permanently resident (reading it if absent). Until the
// read commits the page is simply absent: a concurrent Get of it faults
// it in, and the pin then pins that frame.
func (s *ShardedPool) Pin(page int) error {
	sh, local, err := s.locate(page)
	if err != nil {
		return err
	}
	sh.mu.Lock()
	frame, done, err := sh.pool.probe(local, true)
	sh.mu.Unlock()
	if done || err != nil {
		return s.globalize(err, page)
	}
	err = sh.pool.src.ReadPage(local, frame)
	sh.mu.Lock()
	_, err = sh.pool.commit(local, frame, err, true)
	sh.mu.Unlock()
	return s.globalize(err, page)
}

// Unpin returns a pinned page to replacement management.
func (s *ShardedPool) Unpin(page int) {
	sh, local, err := s.locate(page)
	if err != nil {
		return
	}
	sh.mu.Lock()
	sh.pool.Unpin(local)
	sh.mu.Unlock()
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

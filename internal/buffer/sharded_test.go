package buffer

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// concSource is a PageSource safe for concurrent reads on distinct (or
// identical) pages, as ShardedPool requires: page p is filled with
// byte(p), reads are counted atomically, and failures can be injected
// per page.
type concSource struct {
	pageSize int
	numPages int
	reads    atomic.Uint64
	failOn   map[int]bool // immutable after construction
}

func (c *concSource) PageSize() int { return c.pageSize }

func (c *concSource) ReadPage(page int, dst []byte) error {
	if c.failOn[page] {
		return fmt.Errorf("injected read failure on page %d", page)
	}
	if page < 0 || page >= c.numPages {
		return fmt.Errorf("page %d out of range", page)
	}
	for i := range dst[:c.pageSize] {
		dst[i] = byte(page)
	}
	c.reads.Add(1)
	return nil
}

// concSink is a PageSink safe for concurrent writes.
type concSink struct {
	mu     sync.Mutex
	pages  map[int][]byte
	writes int
	failOn map[int]bool
}

func newConcSink() *concSink {
	return &concSink{pages: make(map[int][]byte), failOn: make(map[int]bool)}
}

func (s *concSink) WritePage(page int, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failOn[page] {
		return fmt.Errorf("injected write failure on page %d", page)
	}
	s.pages[page] = append([]byte(nil), data...)
	s.writes++
	return nil
}

func TestShardedPoolServesContent(t *testing.T) {
	for _, shards := range []int{1, 3, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			src := &concSource{pageSize: 64, numPages: 40}
			p := NewShardedPool(src, 8, 40, shards)
			for _, page := range []int{0, 5, 39, 5, 0, 17} {
				data, err := p.Get(page)
				if err != nil {
					t.Fatal(err)
				}
				if len(data) != 64 || data[0] != byte(page) || data[63] != byte(page) {
					t.Fatalf("page %d content wrong", page)
				}
			}
			hits, misses, _ := p.Stats()
			if hits != 2 || misses != 4 {
				t.Errorf("stats = %d/%d, want 2/4", hits, misses)
			}
			if got := p.Capacity(); got != 8 {
				t.Errorf("Capacity = %d", got)
			}
		})
	}
}

func TestShardedPoolClampsShards(t *testing.T) {
	src := &concSource{pageSize: 32, numPages: 10}
	if got := NewShardedPool(src, 4, 10, 64).Shards(); got != 4 {
		t.Errorf("shards clamped to %d, want capacity 4", got)
	}
	if got := NewShardedPool(src, 4, 10, 0).Shards(); got != 1 {
		t.Errorf("shards clamped to %d, want 1", got)
	}
}

func TestShardedPoolBounds(t *testing.T) {
	src := &concSource{pageSize: 32, numPages: 20}
	p := NewShardedPool(src, 4, 10, 2)
	if _, err := p.Get(-1); err == nil {
		t.Error("Get(-1) succeeded")
	}
	if _, err := p.Get(10); err == nil {
		t.Error("Get past extent succeeded")
	}
	p.Grow(20)
	if _, err := p.Get(15); err != nil {
		t.Errorf("Get after Grow failed: %v", err)
	}
}

func TestShardedPoolReadFailure(t *testing.T) {
	src := &concSource{pageSize: 32, numPages: 10, failOn: map[int]bool{7: true}}
	p := NewShardedPool(src, 4, 10, 2)
	if _, err := p.Get(7); err == nil {
		t.Fatal("read failure not surfaced")
	}
	if p.FailedReads() != 1 {
		t.Errorf("FailedReads = %d", p.FailedReads())
	}
	if _, err := p.Get(3); err != nil {
		t.Fatal(err)
	}
}

// oracleOps drives the same deterministic mixed operation sequence
// against any pool; the oracle test runs it on the single-goroutine Pool
// and on ShardedPool with one shard and demands identical accounting.
type oraclePool interface {
	View(page int, fn func(frame []byte)) (AccessInfo, error)
	Pin(page int) error
	Unpin(page int)
	Put(page int, data []byte) error
	FlushDirty() error
	Grow(numPages int)
	Stats() (hits, misses, evictions uint64)
	DirtyPages() int
	FailedReads() uint64
	FailedWrites() uint64
}

// driveOracle runs the workload and returns, for every read access in
// order (failed ones included), whether View attributed it as a hit.
// Write-backs are compared through the sinks, not per access: the two
// pools clean the same victims but not always on the same call (Pool
// cleans before it issues a read that then fails, ShardedPool only once
// the read succeeded; ShardedPool.Pin cleans the victim even when the
// page turns out to be resident already).
func driveOracle(t *testing.T, p oraclePool, pageSize int) []bool {
	t.Helper()
	var hits []bool
	rng := rand.New(rand.NewSource(99))
	numPages := 64
	if err := p.Pin(0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		page := rng.Intn(numPages)
		switch op := rng.Intn(20); {
		case op < 14:
			calls := 0
			info, err := p.View(page, func(frame []byte) {
				calls++
				if frame[0] != byte(page) && frame[0] != byte(page)^0xAA {
					t.Errorf("op %d: page %d content %x", i, page, frame[0])
				}
			})
			if err != nil {
				if page != 13 { // the injected failure page
					t.Fatalf("op %d: View(%d): %v", i, page, err)
				}
				if calls != 0 {
					t.Fatalf("op %d: callback ran on the failed read of page %d", i, page)
				}
			} else if calls != 1 {
				t.Fatalf("op %d: View(%d) ran the callback %d times", i, page, calls)
			}
			hits = append(hits, info.Hit)
		case op < 17:
			if err := p.Put(page, bytes.Repeat([]byte{byte(page) ^ 0xAA}, pageSize)); err != nil {
				t.Fatalf("op %d: Put(%d): %v", i, page, err)
			}
		case op == 17:
			if err := p.FlushDirty(); err != nil {
				t.Fatalf("op %d: FlushDirty: %v", i, err)
			}
		case op == 18:
			if rng.Intn(2) == 0 {
				p.Unpin(0)
			} else {
				_ = p.Pin(0)
			}
		default:
			if rng.Intn(8) == 0 && numPages < 96 {
				numPages += 8
				p.Grow(numPages)
			}
		}
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	return hits
}

// TestShardedPoolOracleAgainstPool: with one shard, the sharded pool must
// agree with the single-goroutine Pool — the reference — hit for hit,
// miss for miss, evict for evict, on a mixed read/write/pin/grow/flush
// workload with injected read failures.
func TestShardedPoolOracleAgainstPool(t *testing.T) {
	const pageSize = 48
	mkSrc := func() *concSource {
		return &concSource{pageSize: pageSize, numPages: 96, failOn: map[int]bool{13: true}}
	}
	plainSink, shardedSink := newConcSink(), newConcSink()

	plain := NewPool(mkSrc(), 10, 64)
	plain.SetSink(plainSink)
	plainHits := driveOracle(t, plain, pageSize)

	sharded := NewShardedPool(mkSrc(), 10, 64, 1)
	sharded.SetSink(shardedSink)
	shardedHits := driveOracle(t, sharded, pageSize)

	if !slices.Equal(plainHits, shardedHits) {
		t.Errorf("View's hit/miss attribution diverged over %d and %d reads", len(plainHits), len(shardedHits))
	}
	ph, pm, pe := plain.Stats()
	sh, sm, se := sharded.Stats()
	if ph != sh || pm != sm || pe != se {
		t.Errorf("stats diverged: pool %d/%d/%d, sharded %d/%d/%d", ph, pm, pe, sh, sm, se)
	}
	if plain.DirtyPages() != sharded.DirtyPages() {
		t.Errorf("dirty pages: %d vs %d", plain.DirtyPages(), sharded.DirtyPages())
	}
	if plain.FailedReads() != sharded.FailedReads() {
		t.Errorf("failed reads: %d vs %d", plain.FailedReads(), sharded.FailedReads())
	}
	if plain.FailedWrites() != sharded.FailedWrites() {
		t.Errorf("failed writes: %d vs %d", plain.FailedWrites(), sharded.FailedWrites())
	}
	plainSink.mu.Lock()
	shardedSink.mu.Lock()
	defer plainSink.mu.Unlock()
	defer shardedSink.mu.Unlock()
	if len(plainSink.pages) != len(shardedSink.pages) {
		t.Fatalf("sink page sets diverged: %d vs %d", len(plainSink.pages), len(shardedSink.pages))
	}
	for page, want := range plainSink.pages {
		if !bytes.Equal(want, shardedSink.pages[page]) {
			t.Errorf("sink page %d contents diverged", page)
		}
	}
}

// The same oracle workload must also hold per policy: ShardedPool with
// one shard over each policy versus a plain single-threaded Pool with
// that policy.
func TestShardedPoolSingleShardMatchesPoolPerPolicy(t *testing.T) {
	const pageSize = 48
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			factory, _ := FactoryFor(name)
			plainSrc := &concSource{pageSize: pageSize, numPages: 64}
			plain := NewPoolWith(plainSrc, 8, 64, factory)
			shardSrc := &concSource{pageSize: pageSize, numPages: 64}
			sharded := NewShardedPoolWith(shardSrc, 8, 64, 1, factory)
			rng := rand.New(rand.NewSource(21))
			for i := 0; i < 3000; i++ {
				page := rng.Intn(64)
				a, errA := plain.Get(page)
				b, errB := sharded.Get(page)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("op %d: error divergence: %v vs %v", i, errA, errB)
				}
				if errA == nil && !bytes.Equal(a, b) {
					t.Fatalf("op %d: content divergence on page %d", i, page)
				}
			}
			ph, pm, pe := plain.Stats()
			sh, sm, se := sharded.Stats()
			if ph != sh || pm != sm || pe != se {
				t.Fatalf("stats diverged: pool %d/%d/%d, sharded %d/%d/%d", ph, pm, pe, sh, sm, se)
			}
			if plainSrc.reads.Load() != shardSrc.reads.Load() {
				t.Fatalf("source reads diverged: %d vs %d", plainSrc.reads.Load(), shardSrc.reads.Load())
			}
		})
	}
}

// concStore is a combined PageSource/PageSink over one backing store,
// like a real disk manager: write-backs land where later faults read.
// Page contents carry a (page, version) stamp — see stampPage — so the
// stress test can detect a lost update: a stale fault or write-back
// reverting a page that a committed Put moved forward. (The previous
// incarnation of this test had writers Put bytes identical to the
// source pattern, which masked exactly that bug class.)
type concStore struct {
	mu       sync.Mutex
	pageSize int
	pages    [][]byte
}

func newConcStore(pageSize, numPages int) *concStore {
	st := &concStore{pageSize: pageSize, pages: make([][]byte, numPages)}
	for pg := range st.pages {
		st.pages[pg] = stampPage(pageSize, pg, 0)
	}
	return st
}

func (c *concStore) PageSize() int { return c.pageSize }

func (c *concStore) ReadPage(page int, dst []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if page < 0 || page >= len(c.pages) {
		return fmt.Errorf("page %d out of range", page)
	}
	copy(dst, c.pages[page])
	return nil
}

func (c *concStore) WritePage(page int, data []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if page < 0 || page >= len(c.pages) {
		return fmt.Errorf("page %d out of range", page)
	}
	copy(c.pages[page], data)
	return nil
}

func (c *concStore) contents(page int) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.pages[page]...)
}

// stampPage builds page contents carrying (page, version) in the first
// eight bytes plus a fill derived from both, so checkStamp can detect
// torn or mixed frames, not just wrong versions.
func stampPage(pageSize, page int, ver uint32) []byte {
	b := make([]byte, pageSize)
	binary.LittleEndian.PutUint32(b[0:4], uint32(page))
	binary.LittleEndian.PutUint32(b[4:8], ver)
	for i := 8; i < pageSize; i++ {
		b[i] = byte(page) + byte(ver)*31 + byte(i)*7
	}
	return b
}

// checkStamp validates data as a well-formed stamp of page and returns
// its version.
func checkStamp(data []byte, page int) (uint32, error) {
	if got := binary.LittleEndian.Uint32(data[0:4]); got != uint32(page) {
		return 0, fmt.Errorf("page %d frame stamped for page %d", page, got)
	}
	ver := binary.LittleEndian.Uint32(data[4:8])
	if want := stampPage(len(data), page, ver); !bytes.Equal(data[8:], want[8:]) {
		return 0, fmt.Errorf("page %d version %d frame torn", page, ver)
	}
	return ver, nil
}

// TestShardedPoolConcurrentStress hammers a sharded pool from many
// goroutines mixing Get/Put/Pin/Unpin/FlushDirty with pinned
// pages present, over a shared source+sink store with version-stamped
// contents. Every Get must observe a well-formed version no newer than
// the page's version counter; after the run quiesces and flushes, every
// page the writers moved forward must be forward in the store too (a
// lost update would show as a reverted version), and resident frames
// must agree with the store. Run under -race in CI.
func TestShardedPoolConcurrentStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, policy := range []string{"lru", "2q", "clockpro"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, policy), func(t *testing.T) {
				const pageSize = 64
				const numPages = 128
				store := newConcStore(pageSize, numPages)
				factory, _ := FactoryFor(policy)
				p := NewShardedPoolWith(store, 16, numPages, shards, factory)
				p.SetSink(store)
				for _, pin := range []int{0, 1} {
					if err := p.Pin(pin); err != nil {
						t.Fatal(err)
					}
				}
				var ver [numPages]atomic.Uint32
				const goroutines = 8
				const opsPer = 2000
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					// Each goroutine owns one pin page (2+g): pin/unpin pairs
					// race writers Putting the same page, exercising the
					// preparePin/installPinned window.
					go func(seed int64, pinPage int) {
						defer wg.Done()
						rng := rand.New(rand.NewSource(seed))
						pinned := false
						defer func() {
							if pinned {
								p.Unpin(pinPage)
							}
						}()
						for i := 0; i < opsPer; i++ {
							page := rng.Intn(numPages)
							switch op := rng.Intn(100); {
							case op < 72:
								data, err := p.Get(page)
								if err != nil {
									errs <- err
									return
								}
								v, err := checkStamp(data, page)
								if err != nil {
									errs <- err
									return
								}
								if bound := ver[page].Load(); v > bound {
									errs <- fmt.Errorf("page %d read version %d > issued %d", page, v, bound)
									return
								}
							case op < 88:
								v := ver[page].Add(1)
								if err := p.Put(page, stampPage(pageSize, page, v)); err != nil {
									errs <- err
									return
								}
							case op < 93:
								if err := p.FlushDirty(); err != nil {
									errs <- err
									return
								}
							case op < 97:
								if pinned {
									p.Unpin(pinPage)
									pinned = false
								} else if err := p.Pin(pinPage); err != nil {
									errs <- err
									return
								} else {
									pinned = true
								}
							default:
								// Put this goroutine's pin page: while pinned the Put
								// lands on a frame that cannot be evicted, otherwise
								// it races the next Pin's source read.
								v := ver[pinPage].Add(1)
								if err := p.Put(pinPage, stampPage(pageSize, pinPage, v)); err != nil {
									errs <- err
									return
								}
							}
						}
					}(int64(g)+1, 2+g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				if err := p.FlushDirty(); err != nil {
					t.Fatal(err)
				}
				if p.DirtyPages() != 0 {
					t.Errorf("DirtyPages = %d after quiesced flush", p.DirtyPages())
				}
				for pg := 0; pg < numPages; pg++ {
					sv, err := checkStamp(store.contents(pg), pg)
					if err != nil {
						t.Fatalf("store: %v", err)
					}
					if ver[pg].Load() > 0 && sv == 0 {
						t.Errorf("page %d: committed Puts lost — store reverted to the seed version", pg)
					}
					data, err := p.Get(pg)
					if err != nil {
						t.Fatal(err)
					}
					gv, err := checkStamp(data, pg)
					if err != nil {
						t.Fatalf("pool: %v", err)
					}
					if gv != sv {
						t.Errorf("page %d: clean frame at version %d diverges from store version %d", pg, gv, sv)
					}
				}
				hits, misses, _ := p.Stats()
				if hits+misses == 0 {
					t.Error("no accesses recorded")
				}
				if !p.Contains(0) {
					t.Error("pinned page evicted")
				}
			})
		}
	}
}

// TestShardedPoolNotSlower is the CI speedup guard: on the same
// single-threaded workload, striping across 8 shards must not be
// meaningfully slower than the one-shard baseline (generous tolerance,
// best of several trials, to absorb scheduler noise).
func TestShardedPoolNotSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const pageSize = 256
	const numPages = 512
	const capacity = 128
	workload := func(p *ShardedPool) {
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 60000; i++ {
			if _, err := p.Get(rng.Intn(numPages)); err != nil {
				panic(err)
			}
		}
	}
	timeOne := func(mk func() *ShardedPool) time.Duration {
		best := time.Duration(1<<63 - 1)
		for trial := 0; trial < 5; trial++ {
			p := mk()
			start := time.Now()
			workload(p)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	baseline := timeOne(func() *ShardedPool {
		return NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, capacity, numPages, 1)
	})
	sharded := timeOne(func() *ShardedPool {
		return NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, capacity, numPages, 8)
	})
	t.Logf("shards1=%v shards8=%v ratio=%.2f", baseline, sharded, float64(sharded)/float64(baseline))
	if float64(sharded) > float64(baseline)*1.35 {
		t.Errorf("8 shards %v vs 1 shard %v: more than 35%% slower", sharded, baseline)
	}
}

// Contains reports residency for tests (not part of PagePool).
func (s *ShardedPool) Contains(page int) bool {
	if page < 0 || int64(page) >= s.numPages.Load() {
		return false
	}
	sh, local := s.locate(page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pool.policy.Contains(local)
}

// --- benchmarks (recorded in BENCH_PR9.json) ---

type benchPool interface {
	Get(page int) ([]byte, error)
}

func benchPools(b *testing.B, capacity, numPages, pageSize int) map[string]func() benchPool {
	b.Helper()
	return map[string]func() benchPool{
		"shards1": func() benchPool {
			return NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, capacity, numPages, 1)
		},
		"sharded8": func() benchPool {
			return NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, capacity, numPages, 8)
		},
	}
}

// BenchmarkPoolGetHit measures the contended hit path: every page is
// resident, so each Get is lock + policy touch + copy.
func BenchmarkPoolGetHit(b *testing.B) {
	const pageSize = 256
	const numPages = 64
	for name, mk := range benchPools(b, numPages, numPages, pageSize) {
		for _, par := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", name, par), func(b *testing.B) {
				p := mk()
				for pg := 0; pg < numPages; pg++ {
					if _, err := p.Get(pg); err != nil {
						b.Fatal(err)
					}
				}
				b.SetParallelism(par)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(42))
					for pb.Next() {
						if _, err := p.Get(rng.Intn(numPages)); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

// BenchmarkPoolGetMiss measures the fault path: the page set is far
// larger than capacity, so most Gets read the source.
func BenchmarkPoolGetMiss(b *testing.B) {
	const pageSize = 256
	const numPages = 4096
	for name, mk := range benchPools(b, 64, numPages, pageSize) {
		for _, par := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", name, par), func(b *testing.B) {
				p := mk()
				b.SetParallelism(par)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					rng := rand.New(rand.NewSource(42))
					for pb.Next() {
						if _, err := p.Get(rng.Intn(numPages)); err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	}
}

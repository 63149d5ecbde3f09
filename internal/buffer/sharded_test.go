package buffer

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
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

// checkFill reports whether data is, byte for byte, concSource's image of
// page: a frame recycled under a reader, or one holding another page's
// bytes, fails it.
func checkFill(data []byte, page int) error {
	for i, b := range data {
		if b != byte(page) {
			return fmt.Errorf("page %d: byte %d is %#x, want %#x", page, i, b, byte(page))
		}
	}
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

// TestNilFactoryIsLRU: a nil policy factory builds LRU, as the facade
// documents. On one seeded access stream NewPoolWith and
// NewShardedPoolWith given nil count the same hits, misses and
// evictions as NewPool and NewShardedPool.
func TestNilFactoryIsLRU(t *testing.T) {
	const capacity, numPages = 8, 40
	src := &concSource{pageSize: 32, numPages: numPages}
	for _, tc := range []struct {
		name         string
		lru, withNil func() PagePool
	}{
		{"Pool",
			func() PagePool { return NewPool(src, capacity, numPages) },
			func() PagePool { return NewPoolWith(src, capacity, numPages, nil) }},
		{"ShardedPool",
			func() PagePool { return NewShardedPool(src, capacity, numPages, 3) },
			func() PagePool { return NewShardedPoolWith(src, capacity, numPages, 3, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lru, nilPool := tc.lru(), tc.withNil()
			rng := rand.New(rand.NewSource(43))
			for i := 0; i < 5000; i++ {
				page := rng.Intn(rng.Intn(numPages) + 1) // skewed toward low pages
				for _, p := range []PagePool{lru, nilPool} {
					if _, err := p.Get(page); err != nil {
						t.Fatal(err)
					}
				}
			}
			h, m, e := lru.Stats()
			if h == 0 || e == 0 {
				t.Fatalf("stream too easy: %d hits, %d misses, %d evictions", h, m, e)
			}
			if h2, m2, e2 := nilPool.Stats(); h2 != h || m2 != m || e2 != e {
				t.Errorf("nil factory: %d/%d/%d hits/misses/evictions, LRU %d/%d/%d", h2, m2, e2, h, m, e)
			}
		})
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
	if err := p.Pin(10); err == nil {
		t.Error("Pin past extent succeeded")
	}
	p.Unpin(10) // out of range: ignored
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

// driveOracle runs one deterministic stream of View, Get, Pin and Unpin
// over pages [0, numPages) — reads of failPage always fail — against a
// pool and returns, for every read access in order (failed ones
// included), whether it was a hit.
func driveOracle(t *testing.T, p PagePool, seed int64, numPages, failPage int) []bool {
	t.Helper()
	var hits []bool
	// view reads page through View and checks what the callback saw.
	view := func(page int) error {
		calls := 0
		info, err := p.View(page, func(frame []byte, _ bool) {
			calls++
			if err := checkFill(frame, page); err != nil {
				t.Error(err)
			}
		})
		if calls > 1 || (calls == 0) != (err != nil) {
			t.Fatalf("View(%d): err=%v, callback ran %d times", page, err, calls)
		}
		if info.WriteBacks != 0 {
			t.Fatalf("View(%d) reported %d write-backs from a pool nothing was Put to", page, info.WriteBacks)
		}
		hits = append(hits, info.Hit)
		return err
	}
	// get reads page through Get, which reports no attribution: a hit is
	// an access that issued no source read.
	get := func(page int) error {
		_, before, _ := p.Stats()
		data, err := p.Get(page)
		if err == nil {
			if err := checkFill(data, page); err != nil {
				t.Error(err)
			}
		}
		_, after, _ := p.Stats()
		hits = append(hits, after == before)
		return err
	}
	rng := rand.New(rand.NewSource(seed))
	var pinned []int // at most three at once, so the pool always has a victim
	for i := 0; i < 4000; i++ {
		page := rng.Intn(numPages)
		switch op := rng.Intn(20); {
		case op < 17:
			read := view
			if op >= 12 {
				read = get
			}
			if err := read(page); (err != nil) != (page == failPage) {
				t.Fatalf("op %d: read of page %d: %v", i, page, err)
			}
		case op < 19:
			if err := p.Pin(page); (err != nil) != (page == failPage) {
				t.Fatalf("op %d: Pin(%d): %v", i, page, err)
			} else if err == nil && !slices.Contains(pinned, page) {
				pinned = append(pinned, page)
			}
			if len(pinned) > 3 {
				p.Unpin(pinned[0])
				pinned = pinned[1:]
			}
		default:
			p.Unpin(page) // mostly of a page that is not pinned: a no-op
			pinned = slices.DeleteFunc(pinned, func(q int) bool { return q == page })
		}
	}
	return hits
}

// oracleAgainstPool runs driveOracle on the single-goroutine Pool — the
// reference — and on ShardedPool with one shard, both built by factory,
// and demands they agree hit for hit, miss for miss, evict for evict,
// source read for source read.
func oracleAgainstPool(t *testing.T, factory PolicyFactory, capacity int, seed int64, failPage int) {
	t.Helper()
	const pageSize, numPages = 48, 64
	mkSrc := func() *concSource {
		return &concSource{pageSize: pageSize, numPages: numPages, failOn: map[int]bool{failPage: true}}
	}
	plainSrc, shardSrc := mkSrc(), mkSrc()
	plain := NewPoolWith(plainSrc, capacity, numPages, factory)
	plainHits := driveOracle(t, plain, seed, numPages, failPage)
	sharded := NewShardedPoolWith(shardSrc, capacity, numPages, 1, factory)
	shardedHits := driveOracle(t, sharded, seed, numPages, failPage)

	if !slices.Equal(plainHits, shardedHits) {
		t.Errorf("hit/miss attribution diverged over %d and %d reads", len(plainHits), len(shardedHits))
	}
	ph, pm, pe := plain.Stats()
	sh, sm, se := sharded.Stats()
	if ph != sh || pm != sm || pe != se {
		t.Errorf("stats diverged: pool %d/%d/%d, sharded %d/%d/%d", ph, pm, pe, sh, sm, se)
	}
	if plain.FailedReads() != sharded.FailedReads() || (plain.FailedReads() > 0) != (failPage >= 0) {
		t.Errorf("failed reads: %d vs %d with failing page %d", plain.FailedReads(), sharded.FailedReads(), failPage)
	}
	if plain.Resident() != sharded.Resident() {
		t.Errorf("resident pages: %d vs %d", plain.Resident(), sharded.Resident())
	}
	if plainSrc.reads.Load() != shardSrc.reads.Load() {
		t.Errorf("source reads diverged: %d vs %d", plainSrc.reads.Load(), shardSrc.reads.Load())
	}
}

// TestShardedPoolOracleAgainstPool: with one shard, the sharded pool must
// agree with the single-goroutine Pool on a mixed View/Get/pin/unpin
// workload with injected read failures.
func TestShardedPoolOracleAgainstPool(t *testing.T) {
	oracleAgainstPool(t, func(capacity, numPages int) PoolPolicy { return NewLRU(capacity, numPages) }, 10, 99, 13)
}

// The oracle must also hold per policy, on a smaller buffer and another
// stream.
func TestShardedPoolSingleShardMatchesPoolPerPolicy(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			factory, err := FactoryFor(name)
			if err != nil {
				t.Fatal(err)
			}
			oracleAgainstPool(t, factory, 8, 21, 13)
		})
	}
}

// TestShardedPoolConcurrentStress hammers a sharded pool from many
// goroutines mixing Get, View, Pin and Unpin, with pinned pages present,
// on a buffer an eighth of the page space — so frames are evicted and
// recycled under the readers all the time — and, in the miss-heavy arm,
// on the same buffer under fifteen times as many pages, where nearly
// every access is a fault whose callback reads the frame it has just
// made resident. Every image a reader sees must be the source's image of
// the page it asked for; once the run quiesces every access is accounted
// for, the pinned pages are still resident and the pool is within its
// capacity. Run under -race in CI.
func TestShardedPoolConcurrentStress(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, arm := range []string{"lru", "2q", "clockpro", "clockpro/miss-heavy"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, arm), func(t *testing.T) {
				const pageSize = 64
				const capacity = 16
				numPages := 128
				policy, missHeavy := strings.CutSuffix(arm, "/miss-heavy")
				if missHeavy {
					numPages = 1920
				}
				src := &concSource{pageSize: pageSize, numPages: numPages}
				factory, _ := FactoryFor(policy)
				p := NewShardedPoolWith(src, capacity, numPages, shards, factory)
				for _, pin := range []int{0, 1} {
					if err := p.Pin(pin); err != nil {
						t.Fatal(err)
					}
				}
				const goroutines = 8
				const opsPer = 2000
				var reads atomic.Uint64
				var wg sync.WaitGroup
				errs := make(chan error, goroutines)
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					// Each goroutine owns one pin page (2+g): its pin/unpin
					// pairs race the other goroutines' reads of that page,
					// exercising the window between a pin's probe and commit.
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
							case op < 45:
								data, err := p.Get(page)
								if err == nil {
									err = checkFill(data, page)
								}
								if err != nil {
									errs <- err
									return
								}
								reads.Add(1)
							case op < 90:
								var bad error
								if _, err := p.View(page, func(frame []byte, _ bool) { bad = checkFill(frame, page) }); err != nil || bad != nil {
									errs <- fmt.Errorf("View(%d): %v / %v", page, err, bad)
									return
								}
								reads.Add(1)
							case pinned:
								p.Unpin(pinPage)
								pinned = false
							default:
								if err := p.Pin(pinPage); err != nil {
									errs <- err
									return
								}
								pinned = true
							}
						}
					}(int64(g)+1, 2+g)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				// Every read is a hit or a miss; a Pin that had to read is a miss too.
				if hits, misses, _ := p.Stats(); hits+misses < reads.Load() {
					t.Errorf("accounted %d hits + %d misses for %d reads", hits, misses, reads.Load())
				}
				if got := p.Resident(); got > capacity {
					t.Errorf("%d pages resident in a pool of %d", got, capacity)
				}
				if !p.Contains(0) || !p.Contains(1) {
					t.Error("pinned page evicted")
				}
				for pg := 0; pg < numPages; pg++ {
					data, err := p.Get(pg)
					if err == nil {
						err = checkFill(data, pg)
					}
					if err != nil {
						t.Fatalf("after the run: %v", err)
					}
				}
			})
		}
	}
}

// Contains reports residency for tests (not part of PagePool).
func (s *ShardedPool) Contains(page int) bool {
	sh, local, err := s.locate(page)
	if err != nil {
		return false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.pool.policy.Contains(local)
}

// --- benchmarks ---

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

// BenchmarkPoolGetMissView measures one fault end to end on Pool and on
// the 8-shard ShardedPool: pages are read round-robin through a buffer a
// sixty-fourth of the page space, so every View probes a miss, reads the
// source into a spare frame and commits it. Run with -benchmem: after
// the first pass the frames circulate and a fault allocates nothing.
func BenchmarkPoolGetMissView(b *testing.B) {
	const pageSize, numPages, capacity = 256, 4096, 64
	src := func() *concSource { return &concSource{pageSize: pageSize, numPages: numPages} }
	for name, p := range map[string]PagePool{
		"pool":     NewPool(src(), capacity, numPages),
		"sharded8": NewShardedPool(src(), capacity, numPages, 8),
	} {
		b.Run(name, func(b *testing.B) {
			var sum int
			add := func(frame []byte, _ bool) { sum += int(frame[0]) }
			page := 0
			view := func() {
				if _, err := p.View(page, add); err != nil {
					b.Fatal(err)
				}
				page = (page + 1) % numPages
			}
			for i := 0; i < 2*capacity; i++ {
				view() // fill the pool and stock its spare frames
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				view()
			}
		})
	}
}

package buffer

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// coreOf reaches the bookkeeping every built-in policy embeds, so a test
// can chain its own eviction hook in front of the pool's.
func coreOf(t *testing.T, p PoolPolicy) *policyCore {
	t.Helper()
	switch p := p.(type) {
	case *LRU:
		return &p.policyCore
	case *Clock:
		return &p.policyCore
	case *TwoQ:
		return &p.policyCore
	case *ClockPro:
		return &p.policyCore
	}
	t.Fatalf("no policyCore in %T", p)
	return nil
}

// TestPoolIsItsPolicy: a pool adds frames to a policy and nothing else.
// One seeded stream — reads through View and Get, pins and unpins, reads
// of a page the source refuses, and on Pool puts and flushes — runs
// against a pool and, as bare Access / Install / Pin / Unpin / NoteMiss
// calls, against a policy from the same factory. They must agree on
// every access's hit or miss, on the eviction order and on the counters:
// the pool never looks ahead at the policy and never takes a decision
// back, so it is the automaton the simulator drives.
func TestPoolIsItsPolicy(t *testing.T) {
	const pageSize, numPages, capacity, failPage = 32, 48, 8, 13
	for _, name := range PolicyNames() {
		for _, kind := range []string{"pool", "pool+writes", "sharded1"} {
			t.Run(name+"/"+kind, func(t *testing.T) {
				factory, err := FactoryFor(name)
				if err != nil {
					t.Fatal(err)
				}
				var inPool PoolPolicy
				capture := func(capacity, numPages int) PoolPolicy {
					inPool = factory(capacity, numPages)
					return inPool
				}
				src := &concSource{pageSize: pageSize, numPages: numPages, failOn: map[int]bool{failPage: true}}
				var p PagePool
				var w *Pool // the write side, when the stream has one
				if kind == "sharded1" {
					p = NewShardedPoolWith(src, capacity, numPages, 1, capture)
				} else {
					plain := NewPoolWith(src, capacity, numPages, capture)
					plain.SetSink(newFakeSink(pageSize))
					p = plain
					if kind == "pool+writes" {
						w = plain
					}
				}
				var poolEvicts, bareEvicts []int
				core := coreOf(t, inPool)
				release := core.onEvict
				inPool.SetOnEvict(func(pg int) {
					poolEvicts = append(poolEvicts, pg)
					release(pg)
				})
				bare := factory(capacity, numPages)
				bare.SetOnEvict(func(pg int) { bareEvicts = append(bareEvicts, pg) })

				// bareRead is what one read of page is to the policy alone.
				bareRead := func(page int) bool {
					if page == failPage {
						bare.NoteMiss(page) // the read is issued, nothing becomes resident
						return false
					}
					return bare.Access(page)
				}
				rng := rand.New(rand.NewSource(5))
				var pinned []int // at most three at once, so a victim always exists
				for i := 0; i < 6000; i++ {
					page := rng.Intn(numPages)
					switch op := rng.Intn(20); {
					case op < 8:
						info, err := p.View(page, func(frame []byte) {
							if err := checkFill(frame, page); err != nil {
								t.Error(err)
							}
						})
						if want := bareRead(page); info.Hit != want || (err != nil) != (page == failPage) {
							t.Fatalf("op %d: View(%d) hit=%v err=%v, the policy says hit=%v", i, page, info.Hit, err, want)
						}
					case op < 12:
						_, before, _ := p.Stats()
						data, err := p.Get(page)
						if err == nil {
							if err := checkFill(data, page); err != nil {
								t.Error(err)
							}
						}
						_, after, _ := p.Stats()
						if want := bareRead(page); (after == before) != want || (err != nil) != (page == failPage) {
							t.Fatalf("op %d: Get(%d) hit=%v err=%v, the policy says hit=%v", i, page, after == before, err, want)
						}
					case op < 14:
						err := p.Pin(page)
						if page == failPage {
							bare.NoteMiss(page)
						} else if berr := bare.Pin(page); berr != nil {
							t.Fatal(berr)
						}
						if (err != nil) != (page == failPage) {
							t.Fatalf("op %d: Pin(%d): %v", i, page, err)
						}
						if err == nil && !slices.Contains(pinned, page) {
							pinned = append(pinned, page)
						}
						if len(pinned) > 3 {
							p.Unpin(pinned[0])
							bare.Unpin(pinned[0])
							pinned = pinned[1:]
						}
					case op < 16:
						p.Unpin(page)
						bare.Unpin(page)
						pinned = slices.DeleteFunc(pinned, func(q int) bool { return q == page })
					case op < 19 && w != nil:
						if page == failPage {
							page++ // a put would make the unreadable page resident
						}
						if err := w.Put(page, pattern(pageSize, byte(page))); err != nil {
							t.Fatalf("op %d: Put(%d): %v", i, page, err)
						}
						bare.Install(page)
					case w != nil:
						if err := w.FlushDirty(); err != nil {
							t.Fatalf("op %d: FlushDirty: %v", i, err)
						}
					}
					if len(poolEvicts) != len(bareEvicts) {
						t.Fatalf("op %d: the pool has evicted %d pages, the policy alone %d", i, len(poolEvicts), len(bareEvicts))
					}
				}
				if !slices.Equal(poolEvicts, bareEvicts) {
					t.Errorf("eviction order diverged over %d evictions", len(bareEvicts))
				}
				ph, pm, pe := p.Stats()
				bh, bm, be := bare.Stats()
				if ph != bh || pm != bm || pe != be {
					t.Errorf("stats: pool %d/%d/%d, policy alone %d/%d/%d", ph, pm, pe, bh, bm, be)
				}
				if p.Resident() != bare.Len() {
					t.Errorf("resident: pool %d, policy alone %d", p.Resident(), bare.Len())
				}
				if p.FailedReads() == 0 || pe == 0 {
					t.Errorf("the stream drove %d failed reads and %d evictions; it must drive both", p.FailedReads(), pe)
				}
				if reads := src.reads.Load() + p.FailedReads(); pm != reads {
					t.Errorf("%d misses for %d source reads issued", pm, reads)
				}
			})
		}
	}
}

// TestPinUnpinOutOfRange: Pin and Unpin of a page outside the page space
// — PagedTree.PinLevels pins child page numbers read from stored pages,
// which the pool checks again after the tree walk has — are an error and
// a no-op on both pools, under every policy, and leave the pool as it
// was.
func TestPinUnpinOutOfRange(t *testing.T) {
	const pageSize, numPages = 16, 4
	for _, name := range PolicyNames() {
		factory, err := FactoryFor(name)
		if err != nil {
			t.Fatal(err)
		}
		pools := map[string]PagePool{
			"pool":     NewPoolWith(&concSource{pageSize: pageSize, numPages: numPages}, 2, numPages, factory),
			"sharded1": NewShardedPoolWith(&concSource{pageSize: pageSize, numPages: numPages}, 2, numPages, 1, factory),
			"sharded2": NewShardedPoolWith(&concSource{pageSize: pageSize, numPages: numPages}, 2, numPages, 2, factory),
		}
		for kind, p := range pools {
			t.Run(name+"/"+kind, func(t *testing.T) {
				for _, page := range []int{-1, numPages, 9} {
					err := p.Pin(page)
					if want := fmt.Sprintf("buffer: page %d outside [0,%d)", page, numPages); err == nil || err.Error() != want {
						t.Errorf("Pin(%d) = %v, want %q", page, err, want)
					}
					p.Unpin(page)
				}
				if hits, misses, _ := p.Stats(); hits+misses != 0 || p.Resident() != 0 || p.FailedReads() != 0 {
					t.Errorf("rejected pins left %d hits, %d misses, %d resident, %d failed reads", hits, misses, p.Resident(), p.FailedReads())
				}
				if err := p.Pin(3); err != nil {
					t.Fatalf("Pin(3) after the rejected pins: %v", err)
				}
				p.Unpin(3)
			})
		}
	}
}

// TestPinWithoutASlotCountsItsRead: the one accounting rule on the path
// where a read succeeds and its commit does not. A Pin of an absent page
// reads the source before the policy can refuse it a slot, so the refusal
// still counts the miss, and it evicts and pins nothing.
func TestPinWithoutASlotCountsItsRead(t *testing.T) {
	for kind, mk := range map[string]func(src PageSource) PagePool{
		"pool":     func(src PageSource) PagePool { return NewPool(src, 2, 8) },
		"sharded1": func(src PageSource) PagePool { return NewShardedPool(src, 2, 8, 1) },
	} {
		t.Run(kind, func(t *testing.T) {
			src := &concSource{pageSize: 16, numPages: 8}
			p := mk(src)
			for _, page := range []int{0, 1} {
				if err := p.Pin(page); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Pin(2); err == nil {
				t.Fatal("a third pin into two slots succeeded")
			}
			_, misses, evictions := p.Stats()
			if reads := src.reads.Load(); misses != 3 || reads != 3 || evictions != 0 || p.Resident() != 2 {
				t.Errorf("%d misses for %d source reads, %d evictions, %d resident; want 3, 3, 0, 2", misses, reads, evictions, p.Resident())
			}
		})
	}
}

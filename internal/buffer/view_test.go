package buffer

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestViewNeverTorn: readers View pages through a pool a quarter of the
// page space — and, in the miss-heavy arm, a pool of one frame per shard
// under 240 pages, where nearly every View is a fault — so every frame
// is evicted and recycled for another page under them, again and again.
// Whatever the interleaving, the image a callback sees is, whole, the
// source's image of the page it asked for: hit or miss, it reads the
// resident frame under the shard mutex. Run under -race in CI: a frame
// lent out without the lock, or recycled while a fault reads into it,
// would be a reported race here.
func TestViewNeverTorn(t *testing.T) {
	for _, arm := range []struct {
		name                       string
		shards, capacity, numPages int
	}{
		{"shards=1", 1, 4, 16},
		{"shards=2", 2, 4, 16},
		{"shards=4", 4, 4, 16},
		{"miss-heavy/shards=1", 1, 1, 240},
		{"miss-heavy/shards=4", 4, 4, 240},
	} {
		t.Run(arm.name, func(t *testing.T) {
			const pageSize = 256
			numPages := arm.numPages
			p := NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, arm.capacity, numPages, arm.shards)
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			fail := func(err error) {
				select {
				case errs <- err:
				default:
				}
			}
			for g := 0; g < 5; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for i := 0; i < 4000; i++ {
						page := rng.Intn(numPages)
						calls := 0
						_, err := p.View(page, func(frame []byte) {
							calls++
							if err := checkFill(frame, page); err != nil {
								fail(err)
							}
						})
						if err != nil || calls != 1 {
							fail(fmt.Errorf("View(%d): err=%v, callback ran %d times", page, err, calls))
							return
						}
					}
				}(int64(g) + 1)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if _, _, evictions := p.Stats(); evictions == 0 {
				t.Error("nothing was evicted: the scenario never took a frame from under a reader")
			}
		})
	}
}

// TestGetAllocatesOnlyItsCopy: Get is View plus the copy it owes its
// callers. The closure that makes the copy must stay on the stack, so a
// Get allocates exactly the returned page — on Pool, which returns the
// frame itself, nothing — and a View nothing at all. That holds for
// misses as for hits: on pools half the size of the page space, read
// round-robin so that every access faults, the frames circulate through
// the free list once each pool has made one spare.
func TestGetAllocatesOnlyItsCopy(t *testing.T) {
	const pageSize, numPages = 64, 8
	for _, tc := range []struct {
		name   string
		pool   PagePool
		want   float64
		misses bool
	}{
		{"sharded", NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, numPages, numPages, 2), 1, false},
		{"pool", NewPool(&fakeSource{pageSize: pageSize, numPages: numPages}, numPages, numPages), 0, false},
		{"sharded, every access a miss", NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, numPages/2, numPages, 2), 1, true},
		{"pool, every access a miss", NewPool(&fakeSource{pageSize: pageSize, numPages: numPages}, numPages/2, numPages), 0, true},
	} {
		for page := 0; page < numPages; page++ {
			if _, err := tc.pool.Get(page); err != nil {
				t.Fatal(err)
			}
		}
		page := 0
		if got := testing.AllocsPerRun(200, func() {
			_, _ = tc.pool.Get(page)
			page = (page + 1) % numPages
		}); got != tc.want {
			t.Errorf("%s: Get allocates %v times, want %v", tc.name, got, tc.want)
		}
		var sum int
		add := func(frame []byte) { sum += int(frame[0]) }
		if got := testing.AllocsPerRun(200, func() {
			_, _ = tc.pool.View(page, add)
			page = (page + 1) % numPages
		}); got != 0 {
			t.Errorf("%s: View allocates %v times, want 0", tc.name, got)
		}
		if _, misses, _ := tc.pool.Stats(); (misses > numPages) != tc.misses {
			t.Errorf("%s: %d misses over the run", tc.name, misses)
		}
	}
}

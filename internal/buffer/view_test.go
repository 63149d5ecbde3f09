package buffer

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestViewNeverTorn: readers View pages through a pool a quarter of the
// page space, so every frame is evicted and recycled for another page
// under them, again and again. Whatever the interleaving, the image a
// callback sees is, whole, the source's image of the page it asked for —
// a hit reads the frame under the shard mutex, a miss reads the fault's
// private staging buffer. Run under -race in CI: a frame lent out
// without the lock would be a reported race here.
func TestViewNeverTorn(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			const pageSize = 256
			const numPages = 16
			p := NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, 4, numPages, shards)
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
// hit allocates exactly the returned page — on Pool, which returns the
// frame itself, nothing.
func TestGetAllocatesOnlyItsCopy(t *testing.T) {
	const pageSize, numPages = 64, 8
	sharded := NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, numPages, numPages, 2)
	plain := NewPool(&fakeSource{pageSize: pageSize, numPages: numPages}, numPages, numPages)
	for _, tc := range []struct {
		name string
		pool PagePool
		want float64
	}{{"sharded", sharded, 1}, {"pool", plain, 0}} {
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
			t.Errorf("%s: Get of a resident page allocates %v times, want %v", tc.name, got, tc.want)
		}
		var sum int
		add := func(frame []byte) { sum += int(frame[0]) }
		if got := testing.AllocsPerRun(200, func() {
			_, _ = tc.pool.View(page, add)
			page = (page + 1) % numPages
		}); got != 0 {
			t.Errorf("%s: View of a resident page allocates %v times, want 0", tc.name, got)
		}
	}
}

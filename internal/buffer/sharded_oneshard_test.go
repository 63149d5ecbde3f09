package buffer

import (
	"errors"
	"sync"
	"testing"
)

// The tests in this file keep the TestSyncPool* names they had when a
// mutex-wrapped Pool served concurrent readers. That contract — copies
// out, shared statistics, pins, safe under any mix of goroutines — is
// now ShardedPool's, and they pin it on the one-shard configuration.

func TestSyncPoolBasics(t *testing.T) {
	src := &concSource{pageSize: 32, numPages: 20}
	p := NewShardedPool(src, 4, 20, 1)
	frame, err := p.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != 7 {
		t.Fatalf("content = %d", frame[0])
	}
	// The returned slice is a copy: mutating it must not poison the pool.
	frame[0] = 99
	again, err := p.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != 7 {
		t.Error("caller mutation leaked into the buffer")
	}
	hits, misses, _ := p.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
	if p.Capacity() != 4 || p.Resident() != 1 {
		t.Errorf("capacity/resident = %d/%d", p.Capacity(), p.Resident())
	}
}

func TestSyncPoolPinning(t *testing.T) {
	src := &concSource{pageSize: 32, numPages: 20}
	p := NewShardedPool(src, 2, 20, 1)
	if err := p.Pin(5); err != nil {
		t.Fatal(err)
	}
	p.Get(1)
	p.Get(2)
	reads := src.reads.Load()
	if _, err := p.Get(5); err != nil {
		t.Fatal(err)
	}
	if src.reads.Load() != reads {
		t.Error("pinned page re-read")
	}
	p.Unpin(5)
	p.ResetStats()
	if h, m, _ := p.Stats(); h != 0 || m != 0 {
		t.Error("ResetStats failed")
	}
}

// Hammer the pool from many goroutines; run with -race in CI. Content
// integrity is checked on every read.
func TestSyncPoolConcurrent(t *testing.T) {
	src := &concSource{pageSize: 64, numPages: 50}
	p := NewShardedPool(src, 8, 50, 1)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				page := (g*31 + i*17) % 50
				frame, err := p.Get(page)
				if err != nil {
					errs <- err
					return
				}
				if frame[0] != byte(page) || frame[63] != byte(page) {
					errs <- errors.New("corrupt frame under concurrency")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses, _ := p.Stats()
	if hits+misses != 8*2000 {
		t.Errorf("accounted %d of %d accesses", hits+misses, 8*2000)
	}
}

// Mixed-operation stress: readers, pin/unpin cyclers, and stats pollers
// all share one pool. The assertions are content integrity and sane
// accounting; the real check is the race detector, which CI runs over
// this package (-race turns any unsynchronized access into a failure).
func TestSyncPoolStressMixedOps(t *testing.T) {
	const (
		numPages = 40
		capacity = 16
		iters    = 1500
	)
	src := &concSource{pageSize: 64, numPages: numPages}
	p := NewShardedPool(src, capacity, numPages, 1)

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}

	// Readers: full-copy Get over the whole page range.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				page := (g*13 + i*7) % numPages
				frame, err := p.Get(page)
				if err != nil {
					fail(err)
					return
				}
				if frame[0] != byte(page) || frame[len(frame)-1] != byte(page) {
					fail(errors.New("Get returned corrupt frame"))
					return
				}
			}
		}(g)
	}

	// Pinners: cycle pins over disjoint page pairs, reading the pinned
	// page while it is guaranteed resident. Disjoint pairs keep the
	// total concurrent pin count far below capacity.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pages := [2]int{2 * g, 2*g + 1}
			for i := 0; i < iters; i++ {
				page := pages[i%2]
				if err := p.Pin(page); err != nil {
					fail(err)
					return
				}
				frame, err := p.Get(page)
				if err != nil {
					fail(err)
					return
				}
				if frame[0] != byte(page) {
					fail(errors.New("pinned page corrupt"))
					return
				}
				p.Unpin(page)
			}
		}(g)
	}

	// Stats pollers: exercise every read-only accessor concurrently.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				hits, misses, evictions := p.Stats()
				if misses > hits+misses || evictions > misses {
					fail(errors.New("impossible stats snapshot"))
					return
				}
				if r := p.HitRatio(); r < 0 || r > 1 {
					fail(errors.New("hit ratio outside [0,1]"))
					return
				}
				if res := p.Resident(); res < 0 || res > numPages {
					fail(errors.New("resident count out of range"))
					return
				}
			}
		}()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent state: accounting covers every faulting access and the
	// pool still serves correct content.
	hits, misses, evictions := p.Stats()
	if total := hits + misses; total < 4*iters {
		t.Errorf("accounted %d accesses, expected at least %d", total, 4*iters)
	}
	if evictions > misses {
		t.Errorf("evictions %d exceed misses %d", evictions, misses)
	}
	frame, err := p.Get(numPages - 1)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != byte(numPages-1) {
		t.Error("pool corrupt after stress")
	}
}

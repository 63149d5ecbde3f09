// Package par splits an index range over the runtime's processors. It is
// how the bulk-load pipeline (sort keys, the key sort, node building,
// page encoding) uses a second core without growing a knob: the worker
// count is runtime.GOMAXPROCS(0), a caller-fixed grain keeps small inputs
// on the calling goroutine, and every caller writes only what its own
// chunk indexes, so results never depend on how the range was cut.
package par

import (
	"runtime"
	"sync"
)

// Workers returns how many chunks a range of n items is cut into when no
// chunk may be smaller than grain: at most one per processor, and one
// (serial) for any n below 2*grain.
func Workers(n, grain int) int {
	w := runtime.GOMAXPROCS(0)
	if grain > 0 && w > n/grain {
		w = n / grain
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Do cuts [0, n) into workers consecutive chunks and runs fn(w, lo, hi)
// once per chunk, concurrently, returning when all have. Chunk 0 runs on
// the calling goroutine, so one worker means no goroutine at all. The
// bounds depend only on (workers, n): two calls with the same arguments
// see the same chunks, which lets a second phase reuse what the first
// stored per worker.
func Do(workers, n int, fn func(w, lo, hi int)) {
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w, w*n/workers, (w+1)*n/workers)
		}(w)
	}
	fn(0, 0, n/workers)
	wg.Wait()
}

// Chunks is Do for callers that need no per-worker state.
func Chunks(n, grain int, fn func(lo, hi int)) {
	Do(Workers(n, grain), n, func(_, lo, hi int) { fn(lo, hi) })
}

package par

import (
	"runtime"
	"testing"
)

func TestWorkersKeepsSmallInputsSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cases := []struct{ n, grain, want int }{
		{0, 10, 1}, {9, 10, 1}, {19, 10, 1}, {20, 10, 2}, {39, 10, 3}, {40, 10, 4}, {1000, 10, 4},
		{3, 1, 3}, {5, 0, 4},
	}
	for _, c := range cases {
		if got := Workers(c.n, c.grain); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.grain, got, c.want)
		}
	}
	runtime.GOMAXPROCS(1)
	if got := Workers(1000, 10); got != 1 {
		t.Errorf("one processor: Workers = %d", got)
	}
}

// Every index is covered exactly once, by consecutive chunks in worker
// order, for any worker count — including more workers than items.
func TestDoCoversRangeOnce(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		for _, workers := range []int{0, 1, 2, 3, 8, 65} {
			seen := make([]int, n)
			bounds := make([][2]int, max(workers, 1))
			Do(workers, n, func(w, lo, hi int) {
				bounds[w] = [2]int{lo, hi}
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d workers=%d: index %d visited %d times", n, workers, i, c)
				}
			}
			end := 0
			for w, b := range bounds {
				if b[0] != end || b[1] < b[0] {
					t.Fatalf("n=%d workers=%d: chunk %d is [%d,%d) after %d", n, workers, w, b[0], b[1], end)
				}
				end = b[1]
			}
			if end != n {
				t.Fatalf("n=%d workers=%d: chunks end at %d", n, workers, end)
			}
		}
	}
}

func TestChunksRunsSerialBelowGrain(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	calls := 0
	Chunks(99, 50, func(lo, hi int) {
		calls++ // unsynchronised on purpose: one chunk means one goroutine
		if lo != 0 || hi != 99 {
			t.Errorf("chunk [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Errorf("%d chunks below 2*grain", calls)
	}
}

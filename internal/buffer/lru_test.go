package buffer

import (
	"math/rand/v2"
	"testing"
)

// accessAll runs a sequence of accesses and returns the miss pattern.
func accessAll(l *LRU, pages []int) []bool {
	misses := make([]bool, len(pages))
	for i, p := range pages {
		misses[i] = !l.Access(p)
	}
	return misses
}

func TestLRUBasicHitsAndMisses(t *testing.T) {
	l := NewLRU(2, 10)
	// Classic LRU trace: capacity 2.
	trace := []int{1, 2, 1, 3, 2}
	wantMiss := []bool{true, true, false, true, true} // 3 evicts 2 (LRU), then 2 misses
	got := accessAll(l, trace)
	for i := range trace {
		if got[i] != wantMiss[i] {
			t.Fatalf("access %d (page %d): miss=%v, want %v", i, trace[i], got[i], wantMiss[i])
		}
	}
	hits, misses, evictions := l.Stats()
	if hits != 1 || misses != 4 || evictions != 2 {
		t.Errorf("stats = %d/%d/%d", hits, misses, evictions)
	}
}

func TestLRURecencyOrder(t *testing.T) {
	l := NewLRU(3, 10)
	accessAll(l, []int{1, 2, 3})
	l.Access(1) // 1 becomes MRU; order now 1,3,2 (MRU..LRU)
	l.Access(4) // evicts 2
	if l.Contains(2) {
		t.Error("page 2 should have been evicted")
	}
	for _, p := range []int{1, 3, 4} {
		if !l.Contains(p) {
			t.Errorf("page %d should be resident", p)
		}
	}
}

func TestLRUFullAndLen(t *testing.T) {
	l := NewLRU(3, 10)
	if l.Full() || l.Len() != 0 {
		t.Error("fresh cache not empty")
	}
	l.Access(0)
	l.Access(1)
	if l.Full() {
		t.Error("cache full too early")
	}
	l.Access(2)
	if !l.Full() || l.Len() != 3 {
		t.Error("cache should be full at capacity")
	}
	l.Access(3)
	if l.Len() != 3 {
		t.Errorf("Len after eviction = %d", l.Len())
	}
}

func TestLRUSinglePage(t *testing.T) {
	l := NewLRU(1, 5)
	if l.Access(0) {
		t.Error("first access hit")
	}
	if !l.Access(0) {
		t.Error("repeat access missed")
	}
	if l.Access(1) {
		t.Error("new page hit")
	}
	if l.Contains(0) {
		t.Error("page 0 survived capacity-1 eviction")
	}
}

func TestLRUPinning(t *testing.T) {
	l := NewLRU(2, 10)
	if err := l.Pin(5); err != nil {
		t.Fatal(err)
	}
	// Pinned page always hits, never evicted.
	if !l.Access(5) {
		t.Error("pinned page missed")
	}
	l.Access(1)
	l.Access(2) // would need eviction; must evict 1, not pinned 5
	if !l.Contains(5) {
		t.Error("pinned page evicted")
	}
	if l.Contains(1) {
		t.Error("unpinned page 1 not evicted")
	}
}

func TestLRUPinAccounting(t *testing.T) {
	l := NewLRU(2, 10)
	l.ResetStats()
	if err := l.Pin(3); err != nil {
		t.Fatal(err) // non-resident pin costs one miss
	}
	_, misses, _ := l.Stats()
	if misses != 1 {
		t.Errorf("pin of absent page cost %d misses, want 1", misses)
	}
	// Pinning a resident page costs nothing.
	l.Access(4)
	before, _, _ := l.Stats()
	_ = before
	if err := l.Pin(4); err != nil {
		t.Fatal(err)
	}
	_, misses2, _ := l.Stats()
	if misses2 != 2 { // 1 from pin(3) + 1 from Access(4) miss
		t.Errorf("misses = %d", misses2)
	}
	// Now both slots pinned: pinning a third page must fail.
	if err := l.Pin(7); err == nil {
		t.Error("overpinning succeeded")
	}
	// And ordinary access of a new page cannot evict anything.
	defer func() {
		if recover() == nil {
			t.Error("access with fully pinned buffer did not panic")
		}
	}()
	l.Access(8)
}

func TestLRUUnpin(t *testing.T) {
	l := NewLRU(2, 10)
	if err := l.Pin(1); err != nil {
		t.Fatal(err)
	}
	l.Unpin(1)
	l.Access(2)
	l.Access(3) // evicts LRU; 1 is now evictable
	if l.Contains(1) {
		t.Error("unpinned page not evicted as LRU")
	}
	l.Unpin(9) // no-op on unpinned page
}

func TestLRUDoublePin(t *testing.T) {
	l := NewLRU(2, 10)
	if err := l.Pin(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Pin(1); err != nil {
		t.Fatal("re-pin errored")
	}
	l.Unpin(1)
	// After a single unpin the page is unpinned (pin is not a counter).
	l.Access(2)
	l.Access(3)
	if l.Contains(1) {
		t.Error("page survived after unpin")
	}
}

func TestLRUOnEvict(t *testing.T) {
	l := NewLRU(2, 10)
	var evicted []int
	l.SetOnEvict(func(p int) { evicted = append(evicted, p) })
	accessAll(l, []int{1, 2, 3, 4})
	if len(evicted) != 2 || evicted[0] != 1 || evicted[1] != 2 {
		t.Errorf("evicted = %v", evicted)
	}
}

func TestLRUResetStats(t *testing.T) {
	l := NewLRU(2, 10)
	accessAll(l, []int{1, 2, 1})
	l.ResetStats()
	h, m, e := l.Stats()
	if h != 0 || m != 0 || e != 0 {
		t.Error("ResetStats did not zero counters")
	}
	if !l.Contains(1) || !l.Contains(2) {
		t.Error("ResetStats disturbed contents")
	}
}

func TestLRUHitRatio(t *testing.T) {
	l := NewLRU(2, 10)
	if l.HitRatio() != 0 {
		t.Error("fresh HitRatio != 0")
	}
	accessAll(l, []int{1, 1, 1, 2})
	if got := l.HitRatio(); got != 0.5 {
		t.Errorf("HitRatio = %g, want 0.5", got)
	}
}

func TestLRUConstructorPanics(t *testing.T) {
	for _, tc := range []struct{ cap, pages int }{{0, 10}, {-1, 10}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewLRU(%d,%d) did not panic", tc.cap, tc.pages)
				}
			}()
			NewLRU(tc.cap, tc.pages)
		}()
	}
}

// Property: against a reference map-based LRU, the intrusive version
// agrees on every hit/miss over long random traces, including pins.
func TestLRUMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(301, 302))
	for trial := 0; trial < 20; trial++ {
		capacity := 1 + rng.IntN(20)
		numPages := capacity + rng.IntN(50)
		l := NewLRU(capacity, numPages)
		ref := newRefLRU(capacity)
		for step := 0; step < 5000; step++ {
			p := rng.IntN(numPages)
			got := l.Access(p)
			want := ref.access(p)
			if got != want {
				t.Fatalf("trial %d step %d page %d: hit=%v, ref=%v", trial, step, p, got, want)
			}
			if l.Len() > capacity {
				t.Fatalf("size %d exceeds capacity %d", l.Len(), capacity)
			}
		}
	}
}

// refLRU is an obviously-correct reference: a slice ordered MRU-first.
type refLRU struct {
	cap   int
	order []int
}

func newRefLRU(cap int) *refLRU { return &refLRU{cap: cap} }

func (r *refLRU) access(p int) bool {
	for i, q := range r.order {
		if q == p {
			r.order = append(r.order[:i], r.order[i+1:]...)
			r.order = append([]int{p}, r.order...)
			return true
		}
	}
	r.order = append([]int{p}, r.order...)
	if len(r.order) > r.cap {
		r.order = r.order[:r.cap]
	}
	return false
}

func BenchmarkLRUAccess(b *testing.B) {
	l := NewLRU(1000, 10000)
	rng := rand.New(rand.NewPCG(1, 2))
	pages := make([]int, 4096)
	for i := range pages {
		pages[i] = rng.IntN(10000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Access(pages[i%len(pages)])
	}
}

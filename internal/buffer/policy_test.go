package buffer

import (
	"math/rand"
	"testing"
)

// --- 2Q ---

func TestTwoQQueueTransitions(t *testing.T) {
	// capacity 3, Kin 2, Kout 4: small enough to trace by hand.
	q := NewTwoQK(3, 16, 2, 4)
	for _, p := range []int{0, 1, 2} {
		if q.Access(p) {
			t.Fatalf("first access of %d hit", p)
		}
	}
	// A1in = [2 1 0]; over Kin, so the next eviction drains its tail, 0.
	if q.Access(3) {
		t.Fatal("access of 3 hit")
	}
	if q.Contains(0) {
		t.Fatal("0 still resident after eviction")
	}
	// 0 is now a ghost: re-access promotes it to Am (still a miss).
	if q.Access(0) {
		t.Fatal("ghost re-access of 0 counted as hit")
	}
	if !q.Contains(0) {
		t.Fatal("0 not resident after ghost promotion")
	}
	if q.Access(0) != true {
		t.Fatal("Am page 0 did not hit")
	}
	// A1in hits do not refresh FIFO position (correlated-reference
	// filter): 2 hits but stays in place.
	if !q.Access(2) {
		t.Fatal("A1in page 2 did not hit")
	}
	hits, misses, evictions := q.Stats()
	if hits != 2 || misses != 5 || evictions != 2 {
		t.Fatalf("stats = %d/%d/%d, want 2/5/2", hits, misses, evictions)
	}
}

func TestTwoQGhostTrim(t *testing.T) {
	// Kout 1: only the most recent ghost survives.
	q := NewTwoQK(2, 16, 1, 1)
	q.Access(0)
	q.Access(1)
	q.Access(2) // evicts 0 -> ghost
	q.Access(3) // evicts 1 -> ghost, trims ghost 0
	if q.where[0] != qNone {
		t.Fatal("ghost 0 not trimmed past Kout")
	}
	if q.where[1] != qA1out {
		t.Fatal("ghost 1 missing")
	}
	// 0 lost its ghost: re-access is a cold miss into A1in, not Am.
	q.Access(4) // evict 2 first so there is room to observe placement
	q.Access(0)
	if q.where[0] != qA1in {
		t.Fatalf("re-access of trimmed ghost placed in %d, want A1in", q.where[0])
	}
}

func TestTwoQAmEvictionLeavesNoGhost(t *testing.T) {
	q := NewTwoQK(2, 16, 1, 4)
	q.Access(0)
	q.Access(1)
	q.Access(2) // evicts 0 (A1in over Kin) -> ghost
	q.Access(0) // ghost -> Am, evicts 1 -> ghost; resident {0(Am), 2(A1in)}
	q.Access(3) // A1in at Kin=1: evicts 2 -> ghost
	q.Access(2) // ghost -> Am, evicts 3 -> ghost; resident {0, 2} both Am
	q.Access(4) // A1in empty -> evicts Am tail 0, NO ghost
	if q.where[0] != qNone {
		t.Fatalf("Am eviction left state %d for page 0, want none", q.where[0])
	}
	if q.Access(0) {
		t.Fatal("evicted Am page 0 hit")
	}
	if q.where[0] != qA1in {
		t.Fatal("re-access of evicted Am page did not go through A1in")
	}
}

func TestTwoQDefaultTuning(t *testing.T) {
	q := NewTwoQ(16, 64)
	if q.Kin() != 4 || q.Kout() != 8 {
		t.Fatalf("Kin/Kout = %d/%d, want 4/8 (capacity/4, capacity/2)", q.Kin(), q.Kout())
	}
	q = NewTwoQ(1, 4)
	if q.Kin() != 1 || q.Kout() != 1 {
		t.Fatalf("Kin/Kout = %d/%d, want 1/1 at capacity 1", q.Kin(), q.Kout())
	}
}

func TestTwoQPinning(t *testing.T) {
	q := NewTwoQK(3, 16, 1, 2)
	if err := q.Pin(5); err != nil {
		t.Fatal(err)
	}
	_, misses, _ := q.Stats()
	if misses != 1 {
		t.Fatalf("pin of absent page counted %d misses, want 1", misses)
	}
	for i := 0; i < 10; i++ {
		if !q.Access(5) {
			t.Fatal("pinned page missed")
		}
	}
	q.Access(0)
	q.Access(1)
	q.Access(2) // must evict around the pinned page
	if !q.Contains(5) {
		t.Fatal("pinned page evicted")
	}
	q.Unpin(5)
	if q.where[5] != qAm {
		t.Fatal("unpinned page not returned to Am")
	}
}

// --- Clock-Pro ---

func TestClockProBasics(t *testing.T) {
	c := NewClockPro(2, 16)
	if c.Access(0) || c.Access(1) {
		t.Fatal("cold miss hit")
	}
	if !c.Access(0) {
		t.Fatal("resident page missed")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 2 {
		t.Fatalf("stats = %d/%d", hits, misses)
	}
	if c.Len() != 2 || !c.Full() {
		t.Fatal("cache not full after two inserts")
	}
}

func TestClockProGhostPromotion(t *testing.T) {
	// capacity 4 keeps hotTarget positive after the ghost hit grows the
	// cold allocation (at capacity 2 the adaptation legitimately demotes
	// the promoted page straight back to cold).
	c := NewClockPro(4, 16)
	for p := 0; p < 4; p++ {
		c.Access(p)
	}
	c.Access(4) // evicts 0 (oldest unreferenced cold, in test) -> ghost
	if c.Contains(0) {
		t.Fatal("0 resident after eviction")
	}
	if c.state[0] != cpGhost {
		t.Fatal("evicted in-test page 0 left no ghost")
	}
	if c.Access(0) {
		t.Fatal("ghost re-access of 0 counted as hit")
	}
	if !c.Contains(0) || c.state[0] != cpHot {
		t.Fatalf("ghost re-access did not promote 0 to hot (state %d)", c.state[0])
	}
	if !c.Access(0) {
		t.Fatal("promoted page 0 missed")
	}
	checkClockProRing(t, c)
}

func TestClockProPinning(t *testing.T) {
	c := NewClockPro(3, 32)
	if err := c.Pin(7); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Access(i % 8)
	}
	if !c.Contains(7) {
		t.Fatal("pinned page evicted")
	}
	if !c.Access(7) {
		t.Fatal("pinned page missed")
	}
	c.Unpin(7)
	if c.state[7] != cpCold || !c.inTest[7] {
		t.Fatal("unpinned page not returned as cold page in test")
	}
	checkClockProRing(t, c)
}

func TestClockProRandomizedInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		capacity := 1 + rng.Intn(12)
		numPages := capacity + 1 + rng.Intn(80)
		c := NewClockPro(capacity, numPages)
		pinned := map[int]bool{}
		var accesses, expectHits uint64
		for i := 0; i < 600; i++ {
			p := rng.Intn(numPages)
			switch op := rng.Intn(10); {
			case op < 7:
				if pinned[p] || c.Contains(p) {
					expectHits++
				}
				c.Access(p)
				accesses++
				if !c.Contains(p) {
					t.Fatal("page absent right after access")
				}
			case op == 7 && len(pinned) < capacity-1:
				if err := c.Pin(p); err != nil {
					t.Fatal(err)
				}
				if !pinned[p] {
					pinned[p] = true
					accesses++ // absent pin counts a miss... only if it was absent
				}
			case op == 8:
				if pinned[p] {
					c.Unpin(p)
					delete(pinned, p)
				}
			default:
				c.Install(p)
				if !c.Contains(p) {
					t.Fatal("page absent right after install")
				}
			}
			if c.Len() > capacity {
				t.Fatalf("Len %d > capacity %d", c.Len(), capacity)
			}
			checkClockProRing(t, c)
		}
		for p := range pinned {
			if !c.Access(p) {
				t.Fatal("pinned page missed")
			}
		}
	}
}

// checkClockProRing validates the clock ring against the counts: the
// ring is a closed doubly-linked cycle whose per-state population
// matches nHot/nCold/nGhost, residency adds up, and the ghost set is
// bounded.
func checkClockProRing(t *testing.T, c *ClockPro) {
	t.Helper()
	nHot, nCold, nGhost := 0, 0, 0
	if c.oldest != sentinel {
		p := c.oldest
		for i := 0; ; i++ {
			if i > c.numPages+1 {
				t.Fatal("ring walk did not close")
			}
			switch c.state[p] {
			case cpHot:
				nHot++
			case cpCold:
				nCold++
			case cpGhost:
				nGhost++
			default:
				t.Fatalf("ring entry %d has state none", p)
			}
			if c.next[c.prev[p]] != p || c.prev[c.next[p]] != p {
				t.Fatalf("broken links at %d", p)
			}
			p = c.next[p]
			if p == c.oldest {
				break
			}
		}
	}
	if nHot != c.nHot || nCold != c.nCold || nGhost != c.nGhost {
		t.Fatalf("ring counts %d/%d/%d != tracked %d/%d/%d", nHot, nCold, nGhost, c.nHot, c.nCold, c.nGhost)
	}
	if c.nHot+c.nCold+c.nPinned != c.size {
		t.Fatalf("residency %d+%d+%d != size %d", c.nHot, c.nCold, c.nPinned, c.size)
	}
	if c.size > c.capacity {
		t.Fatalf("size %d > capacity %d", c.size, c.capacity)
	}
	if c.nGhost > c.capacity {
		t.Fatalf("ghosts %d > capacity %d", c.nGhost, c.capacity)
	}
}

// --- cross-policy contracts ---

// The pool takes a frame back for every page the eviction hook names, so
// every policy must, on a miss into a full cache, evict exactly one page
// — resident until then, not pinned, absent afterwards — and evict
// nothing on any other access.
func TestPolicyVictimEvictContract(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			factory, err := FactoryFor(name)
			if err != nil {
				t.Fatal(err)
			}
			p := factory(8, 64)
			if err := p.Pin(5); err != nil {
				t.Fatal(err)
			}
			var evicted []int
			resident := map[int]bool{5: true}
			p.SetOnEvict(func(pg int) {
				if !resident[pg] || pg == 5 {
					t.Fatalf("evicted page %d: resident %v, pinned %v", pg, resident[pg], pg == 5)
				}
				delete(resident, pg)
				evicted = append(evicted, pg)
			})
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 4000; i++ {
				pg := rng.Intn(64)
				want := 0
				if p.Full() && !p.Contains(pg) {
					want = 1
				}
				before := len(evicted)
				p.Access(pg)
				resident[pg] = true
				if got := len(evicted) - before; got != want {
					t.Fatalf("op %d: access evicted %d pages, want %d", i, got, want)
				}
				if want == 1 && p.Contains(evicted[before]) {
					t.Fatalf("op %d: evicted page %d still resident", i, evicted[before])
				}
				if p.Len() != len(resident) || p.Len() > p.Capacity() {
					t.Fatalf("op %d: Len %d, %d pages not evicted, capacity %d", i, p.Len(), len(resident), p.Capacity())
				}
			}
			hits, misses, evictions := p.Stats()
			if hits+misses != 4001 || evictions != uint64(len(evicted)) {
				t.Fatalf("hits+misses = %d, want 4001; %d evictions counted, %d hooked", hits+misses, evictions, len(evicted))
			}
		})
	}
}

// Every policy must keep pinned pages resident and always hitting, obey
// capacity, and reject pinning past capacity.
func TestPolicyPinContract(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			factory, err := FactoryFor(name)
			if err != nil {
				t.Fatal(err)
			}
			const capacity = 6
			p := factory(capacity, 48)
			for _, pg := range []int{10, 20, 30} {
				if err := p.Pin(pg); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 2000; i++ {
				p.Access(rng.Intn(48))
				for _, pg := range []int{10, 20, 30} {
					if !p.Contains(pg) {
						t.Fatalf("pinned page %d not resident", pg)
					}
				}
				if p.Len() > capacity {
					t.Fatalf("Len %d > capacity", p.Len())
				}
			}
			for _, pg := range []int{10, 20, 30} {
				if !p.Access(pg) {
					t.Fatalf("pinned page %d missed", pg)
				}
			}
			// Fill the remaining slots with pins, then one more must fail.
			for _, pg := range []int{40, 41, 42} {
				if err := p.Pin(pg); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Pin(43); err == nil {
				t.Fatal("pin past capacity succeeded")
			}
		})
	}
}

// Install must make pages resident with eviction accounting but no
// hit/miss accounting, for every policy.
func TestPolicyInstallContract(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			factory, err := FactoryFor(name)
			if err != nil {
				t.Fatal(err)
			}
			p := factory(4, 32)
			for pg := 0; pg < 6; pg++ {
				p.Install(pg)
				if !p.Contains(pg) {
					t.Fatalf("page %d absent after Install", pg)
				}
			}
			hits, misses, evictions := p.Stats()
			if hits != 0 || misses != 0 {
				t.Fatalf("Install counted %d hits / %d misses", hits, misses)
			}
			if evictions != 2 {
				t.Fatalf("evictions = %d, want 2", evictions)
			}
			if p.Len() != 4 {
				t.Fatalf("Len = %d, want 4", p.Len())
			}
		})
	}
}

func TestFactoryForUnknown(t *testing.T) {
	if _, err := FactoryFor("arc"); err == nil {
		t.Fatal("unknown policy name accepted")
	}
	for _, name := range PolicyNames() {
		if _, err := FactoryFor(name); err != nil {
			t.Fatalf("registered policy %q rejected: %v", name, err)
		}
	}
}

// Sharded with one shard must be access-for-access identical to the
// policy it wraps.
func TestShardedSingleShardIdentity(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			factory, _ := FactoryFor(name)
			ref := factory(8, 64)
			sh := NewSharded(factory, 8, 64, 1)
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 3000; i++ {
				pg := rng.Intn(64)
				if ref.Access(pg) != sh.Access(pg) {
					t.Fatalf("op %d: outcome diverged", i)
				}
			}
			rh, rm, re := ref.Stats()
			sh2, sm, se := sh.Stats()
			if rh != sh2 || rm != sm || re != se {
				t.Fatalf("stats diverged: %d/%d/%d vs %d/%d/%d", rh, rm, re, sh2, sm, se)
			}
		})
	}
}

// Sharding changes which pages compete for which frames but must keep
// the counters consistent and the per-shard capacities summing to the
// configured total.
func TestShardedMultiShardAccounting(t *testing.T) {
	factory, _ := FactoryFor("lru")
	sh := NewSharded(factory, 10, 100, 4)
	sum := func(of func(PoolPolicy) int) int {
		n := 0
		for _, p := range sh.shards {
			n += of(p)
		}
		return n
	}
	if got := sum(PoolPolicy.Capacity); got != 10 {
		t.Fatalf("shard capacities sum to %d, want 10", got)
	}
	if len(sh.shards) != 4 {
		t.Fatalf("%d shards, want 4", len(sh.shards))
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		sh.Access(rng.Intn(100))
	}
	hits, misses, _ := sh.Stats()
	if hits+misses != 5000 {
		t.Fatalf("hits+misses = %d, want 5000", hits+misses)
	}
	if got := sum(PoolPolicy.Len); got > 10 {
		t.Fatalf("%d resident pages > capacity", got)
	}
}

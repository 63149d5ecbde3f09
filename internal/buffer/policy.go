package buffer

import "fmt"

// This file holds the replacement-policy contracts and the bookkeeping
// every policy shares. The paper studies LRU; Clock, 2Q, and Clock-Pro
// exist to test how far its buffer model transfers to the policies real
// database buffer managers ship (experiments ext-clock and ext-policy).
//
// Two interfaces split the two consumers:
//
//   - Policy is the access-level contract the validation simulator
//     drives: touch a page, pin a page, read the counters.
//   - PoolPolicy adds the four hooks a page pool needs to move frames
//     around the policy's decisions: install a written page without read
//     accounting, count a read that made nothing resident, grow the
//     page-number space, observe evictions. The policy decides and the
//     pool moves bytes: a pool never asks which page goes next and never
//     takes a decision back, so a pool over a policy is, access for
//     access, the automaton the simulator drives.
//
// All four built-in policies (LRU, Clock, TwoQ, ClockPro) implement
// PoolPolicy; the Sharded wrapper, which routes accesses across
// per-shard sub-policies for the simulator, implements only Policy.

// Policy is the replacement-policy contract the validation simulator
// drives, letting it swap policies under one workload.
type Policy interface {
	Access(page int) bool
	Pin(page int) error
	Unpin(page int)
	Contains(page int) bool
	Full() bool
	Len() int
	Capacity() int
	Stats() (hits, misses, evictions uint64)
	ResetStats()
	HitRatio() float64
	// SetMetrics attaches (or with nil detaches) an obs mirror that
	// shadows every hit/miss/evict into a metrics registry.
	SetMetrics(*Metrics)
}

// PoolPolicy extends Policy with the hooks Pool needs to manage page
// frames around the policy's decisions.
type PoolPolicy interface {
	Policy
	// Install makes page resident as most recently used without
	// counting a hit or a miss — the caller is writing the page, not
	// reading it, so no physical read is implied. A capacity eviction
	// still counts. Returns whether the page was already resident.
	Install(page int) bool
	// NoteMiss counts a miss and changes nothing else — the accounting
	// for a source read that made no page resident (the read failed, or
	// its commit did).
	NoteMiss(page int)
	// Grow extends the page-number space (no-op if not larger).
	Grow(numPages int)
	// SetOnEvict registers a hook called with each evicted page, letting
	// a pool release the frame. The hook must not call back into the
	// policy.
	SetOnEvict(func(page int))
}

// Compile-time conformance.
var (
	_ PoolPolicy = (*LRU)(nil)
	_ PoolPolicy = (*Clock)(nil)
	_ PoolPolicy = (*TwoQ)(nil)
	_ PoolPolicy = (*ClockPro)(nil)
	_ Policy     = (*Sharded)(nil)
)

// policyCore is the bookkeeping shared by every built-in policy:
// capacity/numPages bounds (validated once, in one place), the pinned
// set, resident/pinned counts, the eviction hook, and the embedded
// policyCounters accounting. Embedding it keeps new policies from
// drifting on the parts of the contract that must stay identical.
type policyCore struct {
	capacity int
	numPages int
	pinned   []bool // page -> pinned
	size     int    // resident pages, including pinned
	nPinned  int
	onEvict  func(page int)

	policyCounters
}

// newPolicyCore validates the shared constructor arguments. capacity
// must be positive and numPages non-negative; violations panic, as both
// always come from experiment configuration bugs, not data.
func newPolicyCore(kind string, capacity, numPages int) policyCore {
	if capacity < 1 {
		panic(fmt.Sprintf("buffer: %s capacity %d < 1", kind, capacity))
	}
	if numPages < 0 {
		panic(fmt.Sprintf("buffer: negative page count %d", numPages))
	}
	return policyCore{
		capacity: capacity,
		numPages: numPages,
		pinned:   make([]bool, numPages),
	}
}

// Capacity returns the page capacity.
func (c *policyCore) Capacity() int { return c.capacity }

// Len returns the number of resident pages (pinned included).
func (c *policyCore) Len() int { return c.size }

// Full reports whether the cache is at capacity — the warm-up boundary
// of the Bhide/Dan/Dias analysis.
func (c *policyCore) Full() bool { return c.size >= c.capacity }

// SetOnEvict registers the eviction hook (nil clears it).
func (c *policyCore) SetOnEvict(f func(page int)) { c.onEvict = f }

// NoteMiss counts a miss without touching residency (see PoolPolicy).
func (c *policyCore) NoteMiss(page int) { c.miss(page) }

// checkPin rejects pinning when every slot is already pinned.
func (c *policyCore) checkPin(page int) error {
	if c.nPinned >= c.capacity {
		return fmt.Errorf("buffer: cannot pin page %d: all %d slots pinned", page, c.capacity)
	}
	return nil
}

// evictPage records one eviction: the counter, the obs mirror, and the
// frame-release hook.
func (c *policyCore) evictPage(page int) {
	c.evict()
	if c.onEvict != nil {
		c.onEvict(page)
	}
}

// grow extends the pinned set and the page-number bound, reporting
// whether there was anything to do (policies extend their own arrays on
// true).
func (c *policyCore) grow(numPages int) bool {
	if numPages <= c.numPages {
		return false
	}
	extra := numPages - c.numPages
	c.pinned = append(c.pinned, make([]bool, extra)...)
	c.numPages = numPages
	return true
}

// noEvictableErr is the shared exhaustion error: an eviction was needed
// but every resident page is pinned.
func noEvictableErr(capacity, nPinned int) error {
	return fmt.Errorf("buffer: no evictable page (capacity %d, %d pinned)", capacity, nPinned)
}

// PolicyFactory constructs a replacement policy for a capacity over the
// dense page numbers [0, numPages). sim.Config.Policy and the sharded
// pool's per-shard construction both take this shape.
type PolicyFactory func(capacity, numPages int) PoolPolicy

// PolicyNames lists the built-in replacement policies in the order the
// CLIs document them.
func PolicyNames() []string { return []string{"lru", "clock", "2q", "clockpro"} }

// FactoryFor resolves a policy name ("lru", "clock", "2q", "clockpro")
// to its constructor.
func FactoryFor(name string) (PolicyFactory, error) {
	switch name {
	case "", "lru":
		return func(capacity, numPages int) PoolPolicy { return NewLRU(capacity, numPages) }, nil
	case "clock":
		return func(capacity, numPages int) PoolPolicy { return NewClock(capacity, numPages) }, nil
	case "2q":
		return func(capacity, numPages int) PoolPolicy { return NewTwoQ(capacity, numPages) }, nil
	case "clockpro":
		return func(capacity, numPages int) PoolPolicy { return NewClockPro(capacity, numPages) }, nil
	default:
		return nil, fmt.Errorf("buffer: unknown policy %q (have %v)", name, PolicyNames())
	}
}

// Sharded routes accesses across per-shard sub-policies exactly the way
// ShardedPool routes pages — shard = page mod n, local page = page div
// n, capacity split round-robin — so the single-threaded validation
// simulator can measure the hit-rate cost of sharding deterministically.
// With shards=1 it delegates to the inner policy over an identity
// mapping and is behavior-identical to it.
type Sharded struct {
	shards []PoolPolicy
	n      int
}

// NewSharded builds a sharded policy over n shards, each constructed by
// factory with its share of the capacity. n is clamped to [1, capacity]
// so every shard has at least one frame.
func NewSharded(factory PolicyFactory, capacity, numPages, n int) *Sharded {
	if capacity < 1 {
		panic(fmt.Sprintf("buffer: Sharded capacity %d < 1", capacity))
	}
	if n < 1 {
		n = 1
	}
	if n > capacity {
		n = capacity
	}
	s := &Sharded{n: n, shards: make([]PoolPolicy, n)}
	for i := 0; i < n; i++ {
		s.shards[i] = factory(shardCapacity(capacity, n, i), shardPages(numPages, n, i))
	}
	return s
}

// shardCapacity splits capacity round-robin: shard s gets cap/n plus one
// of the cap mod n leftovers.
func shardCapacity(capacity, n, s int) int {
	c := capacity / n
	if s < capacity%n {
		c++
	}
	return c
}

// shardPages counts the global pages p < numPages with p mod n == s.
func shardPages(numPages, n, s int) int {
	if numPages <= s {
		return 0
	}
	return (numPages - s + n - 1) / n
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return s.n }

func (s *Sharded) locate(page int) (PoolPolicy, int) {
	return s.shards[page%s.n], page / s.n
}

// Access touches page in its shard.
func (s *Sharded) Access(page int) bool {
	p, local := s.locate(page)
	return p.Access(local)
}

// Pin pins page in its shard.
func (s *Sharded) Pin(page int) error {
	p, local := s.locate(page)
	return p.Pin(local)
}

// Unpin unpins page in its shard.
func (s *Sharded) Unpin(page int) {
	p, local := s.locate(page)
	p.Unpin(local)
}

// Contains reports residency in the page's shard.
func (s *Sharded) Contains(page int) bool {
	p, local := s.locate(page)
	return p.Contains(local)
}

// Full reports whether every shard is at capacity.
func (s *Sharded) Full() bool {
	for _, p := range s.shards {
		if !p.Full() {
			return false
		}
	}
	return true
}

// Len sums resident pages across shards.
func (s *Sharded) Len() int {
	n := 0
	for _, p := range s.shards {
		n += p.Len()
	}
	return n
}

// Capacity sums shard capacities (the configured total).
func (s *Sharded) Capacity() int {
	n := 0
	for _, p := range s.shards {
		n += p.Capacity()
	}
	return n
}

// Stats sums the shard counters.
func (s *Sharded) Stats() (hits, misses, evictions uint64) {
	for _, p := range s.shards {
		h, m, e := p.Stats()
		hits += h
		misses += m
		evictions += e
	}
	return hits, misses, evictions
}

// ResetStats zeroes every shard's counters.
func (s *Sharded) ResetStats() {
	for _, p := range s.shards {
		p.ResetStats()
	}
}

// HitRatio returns the pooled hit ratio across shards.
func (s *Sharded) HitRatio() float64 {
	h, m, _ := s.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// SetMetrics attaches the obs mirror to every shard. Per-level series
// need global page numbers, so each shard gets a view that remaps its
// local pages back through the shard stride.
func (s *Sharded) SetMetrics(m *Metrics) {
	for i, p := range s.shards {
		p.SetMetrics(m.shardView(i, s.n))
	}
}

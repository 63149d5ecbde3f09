package buffer

// ClockPro is the CLOCK-Pro replacement policy (Jiang, Chen & Zhang,
// USENIX ATC '05): a single clock over hot pages, resident cold pages,
// and non-resident "test" entries (page numbers of recently evicted cold
// pages), with three hands.
//
//   - handCold is the eviction hand: it evicts the first unreferenced
//     resident cold page, promotes referenced cold pages in their test
//     period to hot, and recycles other referenced cold pages with a
//     renewed test period.
//   - handHot demotes the first unreferenced hot page to cold (second
//     chances for referenced ones) and terminates the test periods of
//     the cold and non-resident entries it passes.
//   - handTest retires the oldest non-resident test entry when their
//     count exceeds capacity.
//
// The hot/cold split adapts: a re-access during a test period grows the
// cold allocation (coldTarget), an expired test shrinks it — that is the
// reuse-distance feedback that makes CLOCK-Pro scan-resistant where
// plain CLOCK is not. coldTarget starts at half the unpinned capacity.
//
// All hand work happens inside the access that needs a frame (Access,
// Install or Pin of an absent page into a full cache): nothing looks
// ahead, so the policy's state depends on the access sequence alone.
//
// The paper under study models LRU; ClockPro is the second of the two
// modern policies experiment ext-policy validates the extended model
// against.
type ClockPro struct {
	policyCore

	prev, next []int32 // circular ring links (age order)
	state      []uint8 // page -> cpNone/cpHot/cpCold/cpGhost
	inTest     []bool  // resident cold page -> in its test period
	ref        []bool  // page -> referenced bit

	oldest   int32 // oldest ring entry, or sentinel
	handHot  int32
	handCold int32
	handTest int32

	nHot, nCold, nGhost int
	coldTarget          int
}

// Page states for ClockPro.state.
const (
	cpNone  uint8 = iota
	cpHot         // resident hot page
	cpCold        // resident cold page (see inTest)
	cpGhost       // non-resident test entry: page number only
)

// NewClockPro returns an empty CLOCK-Pro cache of the given page
// capacity over page numbers [0, numPages).
func NewClockPro(capacity, numPages int) *ClockPro {
	c := &ClockPro{
		policyCore: newPolicyCore("ClockPro", capacity, numPages),
		prev:       make([]int32, numPages),
		next:       make([]int32, numPages),
		state:      make([]uint8, numPages),
		inTest:     make([]bool, numPages),
		ref:        make([]bool, numPages),
		oldest:     sentinel,
		handHot:    sentinel,
		handCold:   sentinel,
		handTest:   sentinel,
	}
	c.coldTarget = max(1, capacity/2)
	return c
}

// mem is the replacement-managed capacity: total minus pinned frames.
func (c *ClockPro) mem() int { return c.capacity - c.nPinned }

// hotTarget is the hot-page allowance implied by the adaptive coldTarget.
func (c *ClockPro) hotTarget() int { return max(0, c.mem()-c.coldTarget) }

func (c *ClockPro) clampColdTarget() {
	m := max(1, c.mem())
	c.coldTarget = min(max(c.coldTarget, 1), m)
}

// Contains reports whether page is resident (ghost entries hold no
// frame).
func (c *ClockPro) Contains(page int) bool {
	return c.pinned[page] || c.state[page] == cpHot || c.state[page] == cpCold
}

// Access touches page, returning true on a hit. A ghost re-access (a
// cold page re-referenced within its test period) counts as a miss and
// re-enters hot; a cold miss enters as a cold page in test.
func (c *ClockPro) Access(page int) bool {
	if c.pinned[page] {
		c.pinHit()
		return true
	}
	switch c.state[page] {
	case cpHot, cpCold:
		c.hit()
		c.ref[page] = true
		return true
	case cpGhost:
		c.miss()
		c.admitGhost(page)
		return false
	default:
		c.miss()
		c.admitCold(page)
		return false
	}
}

// Install makes page resident without counting a hit or a miss (see
// PoolPolicy); transitions match Access exactly.
func (c *ClockPro) Install(page int) bool {
	if c.pinned[page] {
		return true
	}
	switch c.state[page] {
	case cpHot, cpCold:
		c.ref[page] = true
		return true
	case cpGhost:
		c.admitGhost(page)
		return false
	default:
		c.admitCold(page)
		return false
	}
}

// admitCold inserts a first-seen page as a resident cold page in its
// test period.
func (c *ClockPro) admitCold(page int) {
	if c.size >= c.capacity {
		c.evictOne()
	}
	c.insertNewest(int32(page), cpCold)
	c.inTest[page] = true
	c.ref[page] = false
	c.nCold++
	c.size++
}

// admitGhost promotes a page re-accessed within its test period to hot,
// growing the cold allocation (the page's reuse distance fit in the cold
// window, so the window earns more space).
func (c *ClockPro) admitGhost(page int) {
	c.coldTarget++
	c.clampColdTarget()
	c.removeNode(int32(page))
	c.nGhost--
	c.state[page] = cpNone
	if c.size >= c.capacity {
		c.evictOne()
	}
	c.insertNewest(int32(page), cpHot)
	c.ref[page] = false
	c.nHot++
	c.size++
	c.rebalanceHot()
}

// runHandCold advances the CLOCK-Pro machinery until an unreferenced
// resident cold page sits under handCold and returns it (sentinel when
// everything resident is pinned). Promotions, renewals, and hot
// demotions happen here; only the frame drop is left to evictOne.
func (c *ClockPro) runHandCold() int32 {
	bound := 4*c.capacity + 4*(c.nHot+c.nCold+c.nGhost) + 16
	for i := 0; i < bound; i++ {
		if c.nCold == 0 {
			if c.nHot == 0 {
				return sentinel // everything resident is pinned
			}
			c.demoteOneHot()
			continue
		}
		c.handCold = c.seek(c.handCold, cpCold)
		p := c.handCold
		if !c.ref[p] {
			return p
		}
		if c.inTest[p] {
			// Re-referenced within its test period: hot.
			c.removeNode(p)
			c.nCold--
			c.insertNewest(p, cpHot)
			c.ref[p] = false
			c.nHot++
			c.rebalanceHot()
		} else {
			// Referenced past its test period: second chance as a cold
			// page with a renewed test period.
			c.removeNode(p)
			c.insertNewest(p, cpCold)
			c.inTest[p] = true
			c.ref[p] = false
		}
	}
	panic("buffer: ClockPro victim search did not settle")
}

// evictOne drops one resident cold page's frame. A victim still in its
// test period stays in the ring as a non-resident test entry; one past
// it vanishes.
func (c *ClockPro) evictOne() {
	v := c.runHandCold()
	if v == sentinel {
		panic(noEvictableErr(c.capacity, c.nPinned))
	}
	if c.inTest[v] {
		// Keep the entry, advance the eviction hand past it.
		if c.handCold == v {
			c.handCold = c.advance(v)
		}
		c.state[v] = cpGhost
		c.inTest[v] = false
		c.nGhost++
	} else {
		c.removeNode(v)
		c.state[v] = cpNone
	}
	c.nCold--
	c.size--
	c.evictPage(int(v))
	for c.nGhost > c.capacity {
		c.expireOneTest()
	}
}

// rebalanceHot demotes hot pages while they exceed the adaptive hot
// allowance.
func (c *ClockPro) rebalanceHot() {
	for c.nHot > 0 && c.nHot > c.hotTarget() {
		c.demoteOneHot()
	}
}

// demoteOneHot runs handHot until one hot page is demoted to cold.
// Passing the hand over a cold or non-resident entry terminates its test
// period (shrinking the cold allocation — the page aged out of the hot
// clock without re-access); referenced hot pages get a second chance at
// the newest position.
func (c *ClockPro) demoteOneHot() {
	bound := 4*c.capacity + 4*(c.nHot+c.nCold+c.nGhost) + 16
	for i := 0; i < bound; i++ {
		if c.handHot == sentinel {
			c.handHot = c.oldest
		}
		p := c.handHot
		switch c.state[p] {
		case cpGhost:
			c.removeNode(p) // advances handHot
			c.nGhost--
			c.state[p] = cpNone
			c.coldTarget--
			c.clampColdTarget()
		case cpCold:
			if c.inTest[p] {
				c.inTest[p] = false
				c.coldTarget--
				c.clampColdTarget()
			}
			c.handHot = c.advance(p)
		default: // cpHot
			if c.ref[p] {
				c.ref[p] = false
				c.removeNode(p)
				c.insertNewest(p, cpHot)
				continue
			}
			c.state[p] = cpCold
			c.inTest[p] = false
			c.nHot--
			c.nCold++
			c.handHot = c.advance(p)
			return
		}
	}
	panic("buffer: ClockPro hot hand did not settle")
}

// expireOneTest retires the oldest non-resident test entry.
func (c *ClockPro) expireOneTest() {
	c.handTest = c.seek(c.handTest, cpGhost)
	p := c.handTest
	c.removeNode(p)
	c.nGhost--
	c.state[p] = cpNone
	c.coldTarget--
	c.clampColdTarget()
}

// Pin makes page permanently resident (a miss if absent). Pinned pages
// leave the clock; Unpin returns them as cold pages in a fresh test
// period.
func (c *ClockPro) Pin(page int) error {
	if c.pinned[page] {
		return nil
	}
	if err := c.checkPin(page); err != nil {
		return err
	}
	switch c.state[page] {
	case cpHot:
		c.removeNode(int32(page))
		c.nHot--
		c.state[page] = cpNone
	case cpCold:
		c.removeNode(int32(page))
		c.nCold--
		c.inTest[page] = false
		c.state[page] = cpNone
	default:
		if c.state[page] == cpGhost {
			c.removeNode(int32(page))
			c.nGhost--
			c.state[page] = cpNone
		}
		c.miss()
		if c.size >= c.capacity {
			c.evictOne()
		}
		c.size++
	}
	c.ref[page] = false
	c.pinned[page] = true
	c.nPinned++
	c.clampColdTarget()
	c.rebalanceHot()
	return nil
}

// Unpin returns a pinned page to replacement management as a cold page
// in a fresh test period.
func (c *ClockPro) Unpin(page int) {
	if !c.pinned[page] {
		return
	}
	c.pinned[page] = false
	c.nPinned--
	c.insertNewest(int32(page), cpCold)
	c.inTest[page] = true
	c.ref[page] = false
	c.nCold++
	c.clampColdTarget()
}

// Grow extends the page-number space to numPages (no-op if not larger).
func (c *ClockPro) Grow(numPages int) {
	old := c.numPages
	if !c.grow(numPages) {
		return
	}
	extra := numPages - old
	c.prev = append(c.prev, make([]int32, extra)...)
	c.next = append(c.next, make([]int32, extra)...)
	c.state = append(c.state, make([]uint8, extra)...)
	c.inTest = append(c.inTest, make([]bool, extra)...)
	c.ref = append(c.ref, make([]bool, extra)...)
}

// Stats, ResetStats, HitRatio, SetMetrics, Capacity, Len, Full, and
// SetOnEvict are promoted from the embedded policyCore.

// insertNewest links p into the ring as the youngest entry with the
// given state.
func (c *ClockPro) insertNewest(p int32, st uint8) {
	c.state[p] = st
	if c.oldest == sentinel {
		c.oldest = p
		c.next[p] = p
		c.prev[p] = p
		return
	}
	newest := c.prev[c.oldest]
	c.next[newest] = p
	c.prev[p] = newest
	c.next[p] = c.oldest
	c.prev[c.oldest] = p
}

// removeNode unlinks p from the ring, advancing any hand (and the oldest
// pointer) that sits on it.
func (c *ClockPro) removeNode(p int32) {
	np := c.next[p]
	single := np == p
	adv := np
	if single {
		adv = sentinel
	}
	if c.handHot == p {
		c.handHot = adv
	}
	if c.handCold == p {
		c.handCold = adv
	}
	if c.handTest == p {
		c.handTest = adv
	}
	if c.oldest == p {
		c.oldest = adv
	}
	c.next[c.prev[p]] = np
	c.prev[np] = c.prev[p]
	c.next[p], c.prev[p] = sentinel, sentinel
}

// advance returns the ring entry after p (sentinel on an empty ring).
func (c *ClockPro) advance(p int32) int32 {
	if c.oldest == sentinel {
		return sentinel
	}
	return c.next[p]
}

// seek positions a hand on the next entry of the wanted state, starting
// from the hand's current position (or the oldest entry).
func (c *ClockPro) seek(h int32, want uint8) int32 {
	if h == sentinel {
		h = c.oldest
	}
	bound := c.nHot + c.nCold + c.nGhost + 1
	for i := 0; i < bound; i++ {
		if c.state[h] == want {
			return h
		}
		h = c.next[h]
	}
	panic("buffer: ClockPro hand seek found no entry")
}

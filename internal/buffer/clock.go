package buffer

// Clock is the classic second-chance (CLOCK) replacement policy: pages
// sit on a circular list with a reference bit; the hand sweeps, clearing
// bits, and evicts the first unreferenced page. Real database buffer
// managers often prefer CLOCK to strict LRU for its O(1) unsynchronized
// hits. The paper models LRU; Clock exists to test — not assume — that
// the model's predictions transfer (experiment ext-clock: they do, within
// a few percent, because CLOCK approximates LRU).
//
// Clock implements the same Access/Pin contract as LRU (see Policy).
type Clock struct {
	policyCore

	frames  []int32 // frame -> page (or -1)
	ref     []bool  // frame -> referenced bit
	frameOf []int32 // page -> frame (or -1)
	hand    int
}

// NewClock returns an empty CLOCK cache of the given page capacity over
// page numbers [0, numPages).
func NewClock(capacity, numPages int) *Clock {
	c := &Clock{
		policyCore: newPolicyCore("Clock", capacity, numPages),
		frames:     make([]int32, capacity),
		ref:        make([]bool, capacity),
		frameOf:    make([]int32, numPages),
	}
	for i := range c.frames {
		c.frames[i] = sentinel
	}
	for i := range c.frameOf {
		c.frameOf[i] = sentinel
	}
	return c
}

// Contains reports whether page is resident.
func (c *Clock) Contains(page int) bool { return c.frameOf[page] != sentinel }

// Access touches page, returning true on a hit; on a miss the page is
// faulted in, evicting via the clock hand if needed.
func (c *Clock) Access(page int) bool {
	if f := c.frameOf[page]; f != sentinel {
		if c.pinned[page] {
			c.pinHit(page)
		} else {
			c.hit(page)
		}
		c.ref[f] = true
		return true
	}
	c.miss(page)
	c.insert(page)
	return false
}

func (c *Clock) insert(page int) {
	if c.size < c.capacity {
		// Fill the first empty frame.
		for i := 0; i < c.capacity; i++ {
			if c.frames[i] == sentinel {
				c.frames[i] = int32(page)
				c.ref[i] = true
				c.frameOf[page] = int32(i)
				c.size++
				return
			}
		}
	}
	// Sweep: clear reference bits until an unreferenced, unpinned frame
	// turns up. With at least one unpinned frame this terminates within
	// two sweeps.
	sweeps := 0
	for {
		f := c.hand
		c.hand = (c.hand + 1) % c.capacity
		victim := c.frames[f]
		if victim == sentinel || c.pinned[victim] {
			sweeps++
			if sweeps > 2*c.capacity {
				panic("buffer: Clock has no evictable frame")
			}
			continue
		}
		if c.ref[f] {
			c.ref[f] = false
			continue
		}
		c.frameOf[victim] = sentinel
		c.frames[f] = int32(page)
		c.ref[f] = true
		c.frameOf[page] = int32(f)
		c.evictPage(int(victim))
		return
	}
}

// Install makes page resident without counting a hit or a miss (see
// PoolPolicy). A resident page gets its reference bit set; a miss-side
// install may evict, which still counts.
func (c *Clock) Install(page int) bool {
	if f := c.frameOf[page]; f != sentinel {
		c.ref[f] = true
		return true
	}
	c.insert(page)
	return false
}

// Grow extends the page-number space to numPages (no-op if not larger).
func (c *Clock) Grow(numPages int) {
	old := c.numPages
	if !c.grow(numPages) {
		return
	}
	extra := numPages - old
	start := len(c.frameOf)
	c.frameOf = append(c.frameOf, make([]int32, extra)...)
	for i := start; i < len(c.frameOf); i++ {
		c.frameOf[i] = sentinel
	}
}

// Pin makes page permanently resident (a miss if absent).
func (c *Clock) Pin(page int) error {
	if c.pinned[page] {
		return nil
	}
	if err := c.checkPin(page); err != nil {
		return err
	}
	if c.frameOf[page] == sentinel {
		c.miss(page)
		c.insert(page)
	}
	c.pinned[page] = true
	c.nPinned++
	return nil
}

// Unpin returns a pinned page to normal replacement.
func (c *Clock) Unpin(page int) {
	if !c.pinned[page] {
		return
	}
	c.pinned[page] = false
	c.nPinned--
}

// Stats, ResetStats, HitRatio, SetMetrics, Capacity, Len, Full, and
// SetOnEvict are promoted from the embedded policyCore,
// the bookkeeping shared by every Policy.

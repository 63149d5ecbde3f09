// Package buffer implements the buffering mechanism under study: an LRU
// page buffer with optional pinning of pages (e.g. the top levels of an
// R-tree, Section 5.5 of the paper). The core LRU is specialized for dense
// integer page numbers, which both the validation simulator and the real
// page pool use; Pool layers it over a storage.DiskManager to serve actual
// page contents with hit/miss accounting, and ShardedPool stripes pools
// across shards for concurrent callers.
package buffer

// LRU is a fixed-capacity least-recently-used cache over dense page
// numbers 0..numPages-1. It is implemented with slice-backed intrusive
// prev/next links, so Access is O(1) with no allocation — the validation
// simulator calls it hundreds of millions of times.
//
// Pages can be pinned: a pinned page is always resident, never evicted,
// and counts against capacity. Pinning a non-resident page faults it in.
type LRU struct {
	policyCore

	prev, next []int32 // intrusive list links
	head, tail int32   // most / least recently used, or sentinel
	resident   []bool
}

const sentinel = -1

// NewLRU returns an empty cache of the given page capacity over page
// numbers [0, numPages). capacity must be positive and numPages
// non-negative; violations panic, as both always come from experiment
// configuration bugs, not data.
func NewLRU(capacity, numPages int) *LRU {
	l := &LRU{
		policyCore: newPolicyCore("LRU", capacity, numPages),
		prev:       make([]int32, numPages),
		next:       make([]int32, numPages),
		resident:   make([]bool, numPages),
		head:       sentinel,
		tail:       sentinel,
	}
	return l
}

// Contains reports whether page is resident without touching recency.
func (l *LRU) Contains(page int) bool { return l.resident[page] }

// Access touches page, returning true on a hit and false on a miss (the
// page is then faulted in, evicting the least recently used unpinned page
// if needed). A miss models one disk access.
func (l *LRU) Access(page int) bool {
	if l.pinned[page] {
		l.pinHit()
		return true
	}
	if l.resident[page] {
		l.hit()
		l.moveToFront(int32(page))
		return true
	}
	l.miss()
	if l.size >= l.capacity {
		l.evictLRU()
	}
	l.resident[page] = true
	l.size++
	l.pushFront(int32(page))
	return false
}

// Pin makes page permanently resident. Pinning a non-resident page counts
// as a miss (it must be read once). Pin fails if every unpinned slot is
// exhausted — the caller asked to pin more pages than the buffer holds.
func (l *LRU) Pin(page int) error {
	if l.pinned[page] {
		return nil
	}
	if err := l.checkPin(page); err != nil {
		return err
	}
	if l.resident[page] {
		l.unlink(int32(page))
	} else {
		l.miss()
		if l.size >= l.capacity {
			if err := l.tryEvict(); err != nil {
				return err
			}
		}
		l.resident[page] = true
		l.size++
	}
	l.pinned[page] = true
	l.nPinned++
	return nil
}

// Unpin returns a pinned page to normal LRU management (as most recently
// used). Unpinning an unpinned page is a no-op.
func (l *LRU) Unpin(page int) {
	if !l.pinned[page] {
		return
	}
	l.pinned[page] = false
	l.nPinned--
	l.pushFront(int32(page))
}

// Install makes page resident as most recently used without counting a
// hit or a miss — the caller is writing the page, not reading it, so no
// physical read is implied (Stats' "misses equal source reads" contract
// survives the update path). A capacity eviction still counts. Returns
// whether the page was already resident.
func (l *LRU) Install(page int) bool {
	if l.pinned[page] {
		return true
	}
	if l.resident[page] {
		l.moveToFront(int32(page))
		return true
	}
	if l.size >= l.capacity {
		l.evictLRU()
	}
	l.resident[page] = true
	l.size++
	l.pushFront(int32(page))
	return false
}

// Grow extends the page-number space to numPages (a no-op if not larger).
// Capacity is unchanged: growth admits higher page numbers, not more
// resident pages. The update path calls this when node splits allocate
// pages past the tree's original extent.
func (l *LRU) Grow(numPages int) {
	old := l.numPages
	if !l.grow(numPages) {
		return
	}
	extra := numPages - old
	l.prev = append(l.prev, make([]int32, extra)...)
	l.next = append(l.next, make([]int32, extra)...)
	l.resident = append(l.resident, make([]bool, extra)...)
}

// Stats, ResetStats, HitRatio, SetMetrics, Capacity, Len, Full, and
// SetOnEvict are promoted from the embedded policyCore,
// the bookkeeping shared by every Policy.

func (l *LRU) evictLRU() {
	if err := l.tryEvict(); err != nil {
		// Access only evicts when size >= capacity and unpinned pages
		// exist; exhaustion here means internal bookkeeping broke.
		panic(err)
	}
}

func (l *LRU) tryEvict() error {
	victim := l.tail
	if victim == sentinel {
		return noEvictableErr(l.capacity, l.nPinned)
	}
	l.unlink(victim)
	l.resident[victim] = false
	l.size--
	l.evictPage(int(victim))
	return nil
}

func (l *LRU) pushFront(p int32) {
	l.prev[p] = sentinel
	l.next[p] = l.head
	if l.head != sentinel {
		l.prev[l.head] = p
	}
	l.head = p
	if l.tail == sentinel {
		l.tail = p
	}
}

func (l *LRU) unlink(p int32) {
	if l.prev[p] != sentinel {
		l.next[l.prev[p]] = l.next[p]
	} else {
		l.head = l.next[p]
	}
	if l.next[p] != sentinel {
		l.prev[l.next[p]] = l.prev[p]
	} else {
		l.tail = l.prev[p]
	}
	l.prev[p], l.next[p] = sentinel, sentinel
}

func (l *LRU) moveToFront(p int32) {
	if l.head == p {
		return
	}
	l.unlink(p)
	l.pushFront(p)
}

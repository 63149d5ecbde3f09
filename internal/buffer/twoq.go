package buffer

// TwoQ is the 2Q replacement policy (Johnson & Shasha, VLDB '94) in its
// full version: a small FIFO of first-time pages (A1in), a ghost queue
// of recently evicted first-timers (A1out, page numbers only — no
// frames), and a main LRU of proven-hot pages (Am). A page's first
// reference parks it in A1in; only a re-reference after it has aged out
// into A1out promotes it to Am. Correlated references within A1in do not
// promote — that is the scan resistance LRU lacks.
//
// Queue sizing follows the paper's tuning: Kin = capacity/4 frames for
// A1in, Kout = capacity/2 page numbers for A1out (both at least one).
// Resident pages (A1in + Am + pinned) never exceed capacity; A1out holds
// metadata only.
//
// The paper under study models LRU; TwoQ is one of the two modern
// policies experiment ext-policy validates the extended model against.
type TwoQ struct {
	policyCore

	kin, kout int

	prev, next []int32 // intrusive links, shared: a page is in one queue
	where      []uint8 // page -> queue
	a1in       pageQueue
	am         pageQueue
	a1out      pageQueue // ghost entries: no frames, not resident
}

// Queue tags for TwoQ.where.
const (
	qNone  uint8 = iota
	qA1in        // resident FIFO of first-time pages
	qAm          // resident LRU of re-referenced pages
	qA1out       // non-resident ghost queue
)

// pageQueue is a doubly-linked queue threaded through shared link
// slices: head is the newest entry, tail the oldest.
type pageQueue struct {
	head, tail int32
	n          int
}

// NewTwoQ returns an empty 2Q cache of the given page capacity over page
// numbers [0, numPages), with the paper's Kin=capacity/4 and
// Kout=capacity/2 tuning.
func NewTwoQ(capacity, numPages int) *TwoQ {
	return NewTwoQK(capacity, numPages, max(1, capacity/4), max(1, capacity/2))
}

// NewTwoQK returns a 2Q cache with explicit A1in capacity (kin, frames)
// and A1out capacity (kout, ghost entries); both are clamped to at least
// one, kin to at most capacity.
func NewTwoQK(capacity, numPages, kin, kout int) *TwoQ {
	t := &TwoQ{
		policyCore: newPolicyCore("TwoQ", capacity, numPages),
		kin:        min(max(1, kin), capacity),
		kout:       max(1, kout),
		prev:       make([]int32, numPages),
		next:       make([]int32, numPages),
		where:      make([]uint8, numPages),
		a1in:       pageQueue{head: sentinel, tail: sentinel},
		am:         pageQueue{head: sentinel, tail: sentinel},
		a1out:      pageQueue{head: sentinel, tail: sentinel},
	}
	return t
}

// Kin returns the A1in (first-timer FIFO) capacity in frames.
func (t *TwoQ) Kin() int { return t.kin }

// Kout returns the A1out (ghost) capacity in page numbers.
func (t *TwoQ) Kout() int { return t.kout }

// Contains reports whether page is resident (A1in, Am, or pinned —
// ghosts hold no frame).
func (t *TwoQ) Contains(page int) bool {
	return t.pinned[page] || t.where[page] == qA1in || t.where[page] == qAm
}

// Access touches page, returning true on a hit. A hit in Am refreshes
// recency; a hit in A1in deliberately does not (the FIFO position is the
// correlated-reference filter). A miss on a ghost promotes the page to
// Am; a cold miss enters A1in.
func (t *TwoQ) Access(page int) bool {
	if t.pinned[page] {
		t.pinHit(page)
		return true
	}
	switch t.where[page] {
	case qAm:
		t.hit(page)
		t.qMoveToFront(&t.am, int32(page))
		return true
	case qA1in:
		t.hit(page)
		return true
	case qA1out:
		t.miss(page)
		t.admit(page, true)
		return false
	default:
		t.miss(page)
		t.admit(page, false)
		return false
	}
}

// Install makes page resident without counting a hit or a miss (see
// PoolPolicy). The queue transitions match Access exactly — only the
// accounting differs — so the update path shapes the queues the same way
// reads do.
func (t *TwoQ) Install(page int) bool {
	if t.pinned[page] {
		return true
	}
	switch t.where[page] {
	case qAm:
		t.qMoveToFront(&t.am, int32(page))
		return true
	case qA1in:
		return true
	case qA1out:
		t.admit(page, true)
		return false
	default:
		t.admit(page, false)
		return false
	}
}

// admit makes a non-resident page resident: ghosts (and ghost-promoted
// installs) go to the front of Am, cold pages to the front of A1in,
// evicting first when at capacity.
func (t *TwoQ) admit(page int, ghost bool) {
	if ghost {
		t.qRemove(&t.a1out, int32(page))
		t.where[page] = qNone
	}
	if t.size >= t.capacity {
		t.evictOne()
	}
	t.size++
	if ghost {
		t.where[page] = qAm
		t.qPushFront(&t.am, int32(page))
	} else {
		t.where[page] = qA1in
		t.qPushFront(&t.a1in, int32(page))
	}
}

// evictChoice returns the queue the next eviction drains: A1in while it
// holds more than Kin pages (or Am is empty), Am otherwise — the 2Q
// paper's reclaim rule.
func (t *TwoQ) evictChoice() *pageQueue {
	if t.a1in.n >= t.kin && t.a1in.n > 0 || t.am.n == 0 {
		if t.a1in.n > 0 {
			return &t.a1in
		}
	}
	if t.am.n > 0 {
		return &t.am
	}
	return nil
}

// evictOne drops one resident page. An A1in victim leaves a ghost in
// A1out (trimming its tail past Kout); an Am victim vanishes.
func (t *TwoQ) evictOne() {
	q := t.evictChoice()
	if q == nil {
		panic(noEvictableErr(t.capacity, t.nPinned))
	}
	victim := q.tail
	fromA1in := q == &t.a1in
	t.qRemove(q, victim)
	t.size--
	if fromA1in {
		t.where[victim] = qA1out
		t.qPushFront(&t.a1out, victim)
		if t.a1out.n > t.kout {
			old := t.a1out.tail
			t.qRemove(&t.a1out, old)
			t.where[old] = qNone
		}
	} else {
		t.where[victim] = qNone
	}
	t.evictPage(int(victim))
}

// Pin makes page permanently resident (a miss if absent). Pinned pages
// leave the queues; Unpin returns them to the front of Am.
func (t *TwoQ) Pin(page int) error {
	if t.pinned[page] {
		return nil
	}
	if err := t.checkPin(page); err != nil {
		return err
	}
	switch t.where[page] {
	case qA1in:
		t.qRemove(&t.a1in, int32(page))
		t.where[page] = qNone
	case qAm:
		t.qRemove(&t.am, int32(page))
		t.where[page] = qNone
	default:
		if t.where[page] == qA1out {
			t.qRemove(&t.a1out, int32(page))
			t.where[page] = qNone
		}
		t.miss(page)
		if t.size >= t.capacity {
			t.evictOne()
		}
		t.size++
	}
	t.pinned[page] = true
	t.nPinned++
	return nil
}

// Unpin returns a pinned page to replacement management, at the front of
// Am: a page someone pinned has proven its heat.
func (t *TwoQ) Unpin(page int) {
	if !t.pinned[page] {
		return
	}
	t.pinned[page] = false
	t.nPinned--
	t.where[page] = qAm
	t.qPushFront(&t.am, int32(page))
}

// Grow extends the page-number space to numPages (no-op if not larger).
func (t *TwoQ) Grow(numPages int) {
	old := t.numPages
	if !t.grow(numPages) {
		return
	}
	extra := numPages - old
	t.prev = append(t.prev, make([]int32, extra)...)
	t.next = append(t.next, make([]int32, extra)...)
	t.where = append(t.where, make([]uint8, extra)...)
}

// Stats, ResetStats, HitRatio, SetMetrics, Capacity, Len, Full, and
// SetOnEvict are promoted from the embedded policyCore.

func (t *TwoQ) qPushFront(q *pageQueue, p int32) {
	t.prev[p] = sentinel
	t.next[p] = q.head
	if q.head != sentinel {
		t.prev[q.head] = p
	}
	q.head = p
	if q.tail == sentinel {
		q.tail = p
	}
	q.n++
}

func (t *TwoQ) qRemove(q *pageQueue, p int32) {
	if t.prev[p] != sentinel {
		t.next[t.prev[p]] = t.next[p]
	} else {
		q.head = t.next[p]
	}
	if t.next[p] != sentinel {
		t.prev[t.next[p]] = t.prev[p]
	} else {
		q.tail = t.prev[p]
	}
	t.prev[p], t.next[p] = sentinel, sentinel
	q.n--
}

func (t *TwoQ) qMoveToFront(q *pageQueue, p int32) {
	if q.head == p {
		return
	}
	t.qRemove(q, p)
	t.qPushFront(q, p)
}

package buffer

import (
	"strconv"

	"rtreebuf/internal/obs"
)

// This file routes buffer accounting into the observability layer. Every
// replacement policy embeds one shared policyCounters struct (replacing
// the hand-rolled hits/misses/evictions triples each policy used to
// carry); policyCounters keeps the exact counters the Stats contract
// reports and, when a *Metrics is attached, mirrors each event into
// obs-backed per-policy counters. The buffer counts pages and knows
// nothing of the tree above it: the per-tree-level series are counted by
// the reader that knows each node's level (Metrics.Level), next to the
// access it makes through the pool. With no Metrics
// attached the mirror is a nil-receiver no-op — zero allocations, one
// predictable branch — so uninstrumented runs pay nothing on the
// Access/Get hot path (guarded by obs's TestObsDisabledZeroAlloc and
// BenchmarkObsDisabled; with a registry attached, sim's
// TestQueriesAllocateNothing runs the mirror on every simulated access).

// Metrics mirrors one policy's buffer events into an obs.Registry:
// hits, misses, evictions, pin hits (hits on pinned pages), failed
// source reads, dirtied pages and write-backs; and, once WithLevels has
// registered them, the per-tree-level hit/miss splits its caller counts
// with Level. A nil *Metrics disables mirroring; all methods are
// nil-safe.
type Metrics struct {
	reg    *obs.Registry
	policy obs.Label

	hits          *obs.Counter
	misses        *obs.Counter
	evictions     *obs.Counter
	pinHits       *obs.Counter
	readFailures  *obs.Counter
	dirtied       *obs.Counter
	writeBacks    *obs.Counter
	writeFailures *obs.Counter

	levelHits   []*obs.Counter // by tree level, root = 0; empty until WithLevels
	levelMisses []*obs.Counter
}

// NewMetrics registers the per-policy buffer counters in reg, labeled
// with the policy name ("lru", "clock", ...). A nil registry returns a
// nil (disabled) Metrics, so call sites need no conditional wiring.
func NewMetrics(reg *obs.Registry, policy string) *Metrics {
	if reg == nil {
		return nil
	}
	p := obs.L("policy", policy)
	return &Metrics{
		reg:           reg,
		policy:        p,
		hits:          reg.Counter("buffer_hits_total", p),
		misses:        reg.Counter("buffer_misses_total", p),
		evictions:     reg.Counter("buffer_evictions_total", p),
		pinHits:       reg.Counter("buffer_pin_hits_total", p),
		readFailures:  reg.Counter("buffer_read_failures_total", p),
		dirtied:       reg.Counter("buffer_pages_dirtied_total", p),
		writeBacks:    reg.Counter("buffer_write_backs_total", p),
		writeFailures: reg.Counter("buffer_write_failures_total", p),
	}
}

// WithLevels registers the buffer_level_{hits,misses}_total{policy,level}
// series for levels 0 (the root) through levels-1, which Level then
// counts into; called again it re-registers for a tree whose height
// changed. Returns m for chaining; nil-safe.
func (m *Metrics) WithLevels(levels int) *Metrics {
	if m == nil || levels <= 0 {
		return m
	}
	m.levelHits = make([]*obs.Counter, levels)
	m.levelMisses = make([]*obs.Counter, levels)
	for lvl := 0; lvl < levels; lvl++ {
		l := obs.L("level", strconv.Itoa(lvl))
		m.levelHits[lvl] = m.reg.Counter("buffer_level_hits_total", m.policy, l)
		m.levelMisses[lvl] = m.reg.Counter("buffer_level_misses_total", m.policy, l)
	}
	return m
}

// Level counts one access to a node at the given tree level (root = 0)
// as a hit or a miss. The buffer does not know what a page holds, so the
// caller that does — the reader that walked to the node — reports it
// beside the access itself. A level WithLevels did not register is not
// counted; nil-safe.
func (m *Metrics) Level(level int, hit bool) {
	if m == nil || uint(level) >= uint(len(m.levelHits)) {
		return
	}
	if hit {
		m.levelHits[level].Inc()
	} else {
		m.levelMisses[level].Inc()
	}
}

func (m *Metrics) onHit() {
	if m == nil {
		return
	}
	m.hits.Inc()
}

func (m *Metrics) onPinHit() {
	if m == nil {
		return
	}
	m.hits.Inc()
	m.pinHits.Inc()
}

func (m *Metrics) onMiss() {
	if m == nil {
		return
	}
	m.misses.Inc()
}

func (m *Metrics) onEvict() {
	if m == nil {
		return
	}
	m.evictions.Inc()
}

func (m *Metrics) onReadFailure() {
	if m == nil {
		return
	}
	m.readFailures.Inc()
}

func (m *Metrics) onDirty() {
	if m == nil {
		return
	}
	m.dirtied.Inc()
}

func (m *Metrics) onWriteBack() {
	if m == nil {
		return
	}
	m.writeBacks.Inc()
}

func (m *Metrics) onWriteFailure() {
	if m == nil {
		return
	}
	m.writeFailures.Inc()
}

// policyCounters is the hit/miss/evict accounting shared by every Policy
// implementation. The uint64 fields are the result-bearing counters the
// Stats/HitRatio contract exposes (and experiments consume); the obs
// mirror is additive observability that never feeds back into results —
// in particular ResetStats (used to discard warm-up) zeroes only the
// result counters, while the obs series stay cumulative.
type policyCounters struct {
	hits, misses, evictions uint64
	metrics                 *Metrics
}

// SetMetrics attaches (or with nil detaches) the obs mirror.
func (c *policyCounters) SetMetrics(m *Metrics) { c.metrics = m }

func (c *policyCounters) hit() {
	c.hits++
	c.metrics.onHit()
}

func (c *policyCounters) pinHit() {
	c.hits++
	c.metrics.onPinHit()
}

func (c *policyCounters) miss() {
	c.misses++
	c.metrics.onMiss()
}

func (c *policyCounters) evict() {
	c.evictions++
	c.metrics.onEvict()
}

// Stats returns cumulative hits, misses, and evictions.
func (c *policyCounters) Stats() (hits, misses, evictions uint64) {
	return c.hits, c.misses, c.evictions
}

// ResetStats zeroes the counters without disturbing cache contents —
// used to discard warm-up before measuring steady state. The obs mirror
// (if attached) is cumulative and unaffected.
func (c *policyCounters) ResetStats() { c.hits, c.misses, c.evictions = 0, 0, 0 }

// HitRatio returns hits/(hits+misses), or 0 before any access.
func (c *policyCounters) HitRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

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
// obs-backed per-policy and per-tree-level counters. With no Metrics
// attached the mirror is a nil-receiver no-op — zero allocations, one
// predictable branch — so uninstrumented runs pay nothing on the
// Access/Get hot path (guarded by BenchmarkObsDisabled and rtreelint's
// hotalloc analyzer).

// Metrics mirrors one policy's buffer events into an obs.Registry:
// hits, misses, evictions, pin hits (hits on pinned pages), failed
// source reads, and — when the page→level mapping is known — per-tree-
// level hit/miss splits. A nil *Metrics disables mirroring; all methods
// are nil-safe.
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

	levelOf     []int // page -> tree level (root = 0); nil disables per-level series
	levelHits   []*obs.Counter
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

// WithLevels attaches a page→level mapping (root = 0, as produced by the
// level-order page numbering every tree save uses) enabling the
// buffer_level_{hits,misses}_total{policy,level} series. levels is the
// number of tree levels. Returns m for chaining; nil-safe.
func (m *Metrics) WithLevels(levelOf []int, levels int) *Metrics {
	if m == nil || levels <= 0 {
		return m
	}
	m.levelOf = levelOf
	m.levelHits = make([]*obs.Counter, levels)
	m.levelMisses = make([]*obs.Counter, levels)
	for lvl := 0; lvl < levels; lvl++ {
		l := obs.L("level", strconv.Itoa(lvl))
		m.levelHits[lvl] = m.reg.Counter("buffer_level_hits_total", m.policy, l)
		m.levelMisses[lvl] = m.reg.Counter("buffer_level_misses_total", m.policy, l)
	}
	return m
}

// LevelsFromCounts expands per-level page counts (root first, the
// storage.TreeMeta.Levels shape) into the page→level mapping WithLevels
// takes.
func LevelsFromCounts(counts []int) []int {
	total := 0
	for _, c := range counts {
		total += c
	}
	out := make([]int, 0, total)
	for lvl, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, lvl)
		}
	}
	return out
}

func (m *Metrics) levelHit(page int) {
	if m.levelOf == nil || page >= len(m.levelOf) {
		return
	}
	if lvl := m.levelOf[page]; lvl >= 0 && lvl < len(m.levelHits) {
		m.levelHits[lvl].Inc()
	}
}

func (m *Metrics) levelMiss(page int) {
	if m.levelOf == nil || page >= len(m.levelOf) {
		return
	}
	if lvl := m.levelOf[page]; lvl >= 0 && lvl < len(m.levelMisses) {
		m.levelMisses[lvl].Inc()
	}
}

func (m *Metrics) onHit(page int) {
	if m == nil {
		return
	}
	m.hits.Inc()
	m.levelHit(page)
}

func (m *Metrics) onPinHit(page int) {
	if m == nil {
		return
	}
	m.hits.Inc()
	m.pinHits.Inc()
	m.levelHit(page)
}

func (m *Metrics) onMiss(page int) {
	if m == nil {
		return
	}
	m.misses.Inc()
	m.levelMiss(page)
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

func (c *policyCounters) hit(page int) {
	c.hits++
	c.metrics.onHit(page)
}

func (c *policyCounters) pinHit(page int) {
	c.hits++
	c.metrics.onPinHit(page)
}

func (c *policyCounters) miss(page int) {
	c.misses++
	c.metrics.onMiss(page)
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

// shardView returns a shallow clone of m for shard number `shard` of n:
// the obs counters are shared (shards sum into one per-policy series),
// but the page→level mapping is remapped so a shard reporting its local
// page numbers still increments the right global level. Nil-safe; with
// n == 1 the mapping is the identity and m itself is returned.
func (m *Metrics) shardView(shard, n int) *Metrics {
	if m == nil || n <= 1 {
		return m
	}
	v := *m
	if m.levelOf != nil {
		locals := shardPages(len(m.levelOf), n, shard)
		v.levelOf = make([]int, locals)
		for local := 0; local < locals; local++ {
			v.levelOf[local] = m.levelOf[local*n+shard]
		}
	}
	return &v
}

// PolicyName returns the metrics label of a replacement policy.
func PolicyName(p Policy) string {
	switch p := p.(type) {
	case *LRU:
		return "lru"
	case *Clock:
		return "clock"
	case *TwoQ:
		return "2q"
	case *ClockPro:
		return "clockpro"
	case *Sharded:
		return PolicyName(p.shards[0])
	default:
		return "custom"
	}
}

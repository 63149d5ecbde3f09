// Package obs is the repository's observability layer: a labeled metrics
// registry (counters, gauges, log-bucketed histograms) plus a per-query
// flight recorder, built on the standard library only.
//
// The package contract, which every instrumented layer relies on:
//
//   - Disabled is free. A nil *Registry is a valid disabled registry:
//     every metric it hands out is nil, and every method on a nil metric
//     is a no-op that performs zero heap allocations. Hot paths hold the
//     (possibly nil) metric pointer and call it unconditionally — the
//     cost of "off" is one predictable branch, guarded by
//     BenchmarkObsDisabled and rtreelint's hotalloc analyzer.
//   - Enabled is race-safe. Counters, gauges, and histogram buckets are
//     atomics; registration takes the registry lock. Independent
//     collectors (e.g. one per simulation replica) merge deterministically
//     with Merge.
//   - Observability never changes results. Metrics mirror existing
//     accounting; they are never read back into a computation, so every
//     numeric result and report byte is identical with instrumentation on
//     or off (asserted by tests in sim and experiments).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name=value dimension of a metric.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64 metric. The zero value is
// usable; a nil *Counter is the disabled no-op.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one. Safe (and free) on a nil receiver.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n. Safe (and free) on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 metric that can go up and down. A nil *Gauge is the
// disabled no-op.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the value
}

// Set stores v. Safe on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adds v (CAS loop). Safe on a nil receiver.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the fixed bucket count of Histogram: bucket i counts
// observations v with 2^(i-1) <= v < 2^i (bucket 0 takes v < 1), plus one
// implicit +Inf tail for anything at or above 2^(histBuckets-2).
const histBuckets = 40

// Histogram is a log-bucketed (powers of two) histogram of non-negative
// observations. Log bucketing keeps it allocation-free and fixed-size
// while spanning nanoseconds to hours, which is all the precision the
// experiments need. A nil *Histogram is the disabled no-op.
type Histogram struct {
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
	buckets [histBuckets]atomic.Uint64
}

// bucketOf maps an observation to its bucket index.
func bucketOf(v float64) int {
	if v < 1 || math.IsNaN(v) {
		return 0
	}
	b := 1 + int(math.Floor(math.Log2(v)))
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

// Observe records v (negatives clamp to 0). Safe on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			break
		}
	}
	h.buckets[bucketOf(v)].Add(1)
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Kind distinguishes metric types in snapshots and exports.
type Kind int

// The metric kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// metric is one registered metric with its identity.
type metric struct {
	name   string
	labels []Label
	kind   Kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. Metrics are identified by (name, labels);
// asking for the same identity twice returns the same metric, so layers
// that are constructed repeatedly (one pool per replica) accumulate into
// one series unless they use separate registries and Merge.
//
// A nil *Registry is the disabled registry: every lookup returns a nil
// metric and every method is a no-op.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order kept for stable iteration pre-sort
}

// NewRegistry returns an empty enabled registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*metric)}
}

// keyOf builds the map identity of (name, labels). Labels are sorted so
// identity is order-independent.
func keyOf(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	for _, l := range ls {
		b.WriteByte('{')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte('}')
	}
	return b.String()
}

// lookup returns the metric of the given identity, creating it with mk on
// first use. Mismatched kinds panic: two call sites disagreeing on what a
// name means is a programming error worth failing loudly on.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *metric {
	key := keyOf(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", key, m.kind, kind))
		}
		return m
	}
	m := &metric{name: name, labels: append([]Label(nil), labels...), kind: kind}
	switch kind {
	case KindCounter:
		m.c = &Counter{}
	case KindGauge:
		m.g = &Gauge{}
	case KindHistogram:
		m.h = &Histogram{}
	}
	r.metrics[key] = m
	r.order = append(r.order, key)
	return m
}

// Counter returns the counter of the given identity, registering it on
// first use. Returns nil (the no-op counter) on a nil registry.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindCounter, labels).c
}

// Gauge returns the gauge of the given identity, registering it on first
// use. Returns nil on a nil registry.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindGauge, labels).g
}

// Histogram returns the histogram of the given identity, registering it
// on first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, KindHistogram, labels).h
}

// Merge folds src's metrics into r: counters and histograms add, gauges
// take src's value when src has one registered (last merge wins). Merging
// a nil src, or into a nil r, is a no-op. Merge order is up to the caller;
// merging replica registries in replica order keeps results deterministic.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	keys := append([]string(nil), src.order...)
	ms := make([]*metric, len(keys))
	for i, k := range keys {
		ms[i] = src.metrics[k]
	}
	src.mu.Unlock()
	for _, m := range ms {
		switch m.kind {
		case KindCounter:
			r.Counter(m.name, m.labels...).Add(m.c.Value())
		case KindGauge:
			r.Gauge(m.name, m.labels...).Set(m.g.Value())
		case KindHistogram:
			dst := r.Histogram(m.name, m.labels...)
			dst.count.Add(m.h.count.Load())
			for {
				old := dst.sumBits.Load()
				nw := math.Float64bits(math.Float64frombits(old) + m.h.Sum())
				if dst.sumBits.CompareAndSwap(old, nw) {
					break
				}
			}
			for i := range dst.buckets {
				dst.buckets[i].Add(m.h.buckets[i].Load())
			}
		}
	}
}

// BucketCount is one non-empty histogram bucket in a snapshot: Count
// observations with UpperBound as the exclusive upper edge (+Inf for the
// tail bucket).
type BucketCount struct {
	UpperBound float64
	Count      uint64
}

// Sample is one metric's state in a Snapshot.
type Sample struct {
	Name    string
	Labels  []Label // sorted by key
	Kind    Kind
	Value   float64       // counter count or gauge value
	Count   uint64        // histogram observation count
	Sum     float64       // histogram observation sum
	Buckets []BucketCount // non-empty histogram buckets, ascending
}

// FullName renders name{k="v",...} with labels sorted by key.
func (s Sample) FullName() string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('{')
	for i, l := range s.Labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Snapshot returns the current state of every registered metric, sorted
// by name then label values, so exports are deterministic. A nil registry
// snapshots to nil.
func (r *Registry) Snapshot() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, key := range r.order {
		ms = append(ms, r.metrics[key])
	}
	r.mu.Unlock()
	out := make([]Sample, 0, len(ms))
	for _, m := range ms {
		s := Sample{Name: m.name, Kind: m.kind}
		s.Labels = append([]Label(nil), m.labels...)
		sort.Slice(s.Labels, func(i, j int) bool { return s.Labels[i].Key < s.Labels[j].Key })
		switch m.kind {
		case KindCounter:
			s.Value = float64(m.c.Value())
		case KindGauge:
			s.Value = m.g.Value()
		case KindHistogram:
			s.Count = m.h.count.Load()
			s.Sum = m.h.Sum()
			for i := range m.h.buckets {
				if n := m.h.buckets[i].Load(); n > 0 {
					ub := math.Inf(1)
					if i < histBuckets-1 {
						ub = math.Pow(2, float64(i))
					}
					s.Buckets = append(s.Buckets, BucketCount{UpperBound: ub, Count: n})
				}
			}
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].FullName() < out[j].FullName() })
	return out
}

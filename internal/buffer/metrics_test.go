package buffer

import (
	"strings"
	"testing"

	"rtreebuf/internal/obs"
)

// counterValue reads one counter from the registry snapshot by full name.
func counterValue(t *testing.T, reg *obs.Registry, fullName string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.FullName() == fullName {
			return s.Value
		}
	}
	t.Fatalf("metric %s not found in snapshot", fullName)
	return 0
}

// TestMetricsMirrorsStats drives an LRU through hits, misses, evictions,
// and pin hits, and asserts the obs mirror matches Stats() exactly.
func TestMetricsMirrorsStats(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLRU(2, 8)
	l.SetMetrics(NewMetrics(reg, "lru"))

	if err := l.Pin(0); err != nil { // miss (faults page 0 in, pinned)
		t.Fatal(err)
	}
	l.Access(0) // pin hit
	l.Access(1) // miss
	l.Access(1) // hit
	l.Access(2) // miss, evicts 1 (0 is pinned)
	l.Access(1) // miss, evicts 2

	hits, misses, evictions := l.Stats()
	if hits != 2 || misses != 4 || evictions != 2 {
		t.Fatalf("Stats() = %d/%d/%d, want 2/4/2", hits, misses, evictions)
	}
	checks := map[string]float64{
		`buffer_hits_total{policy="lru"}`:      float64(hits),
		`buffer_misses_total{policy="lru"}`:    float64(misses),
		`buffer_evictions_total{policy="lru"}`: float64(evictions),
		`buffer_pin_hits_total{policy="lru"}`:  1,
	}
	for name, want := range checks {
		if got := counterValue(t, reg, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// TestMetricsPerLevel: WithLevels registers one hit and one miss series
// per level, Level counts into them and nothing else, a level outside
// the registered ones is dropped, and re-registering for a taller tree
// keeps the counts already made. The sim's and storage's per-level tests
// hold the series to the pool totals.
func TestMetricsPerLevel(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg, "clock").WithLevels(2)
	m.Level(0, false)
	m.Level(0, true)
	m.Level(1, false)
	m.Level(1, false)
	m.Level(1, true)
	m.Level(2, true) // not registered: dropped

	want := map[string]float64{
		`buffer_level_hits_total{level="0",policy="clock"}`:   1,
		`buffer_level_misses_total{level="0",policy="clock"}`: 1,
		`buffer_level_hits_total{level="1",policy="clock"}`:   1,
		`buffer_level_misses_total{level="1",policy="clock"}`: 2,
		`buffer_hits_total{policy="clock"}`:                   0,
		`buffer_misses_total{policy="clock"}`:                 0,
	}
	for name, w := range want {
		if got := counterValue(t, reg, name); got != w {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}

	m.WithLevels(3)
	m.Level(2, true)
	if got := counterValue(t, reg, `buffer_level_hits_total{level="2",policy="clock"}`); got != 1 {
		t.Errorf("level-2 hits after WithLevels(3) = %v, want 1", got)
	}
	if got := counterValue(t, reg, `buffer_level_misses_total{level="1",policy="clock"}`); got != 2 {
		t.Errorf("level-1 misses after re-registering = %v, want 2", got)
	}

	var off *Metrics
	off.Level(0, true) // nil-safe
	if off.WithLevels(2) != nil {
		t.Error("nil WithLevels returned non-nil")
	}
}

// TestResetStatsLeavesObsCumulative: warm-up discard must zero only the
// result-bearing counters; the obs series keep their full history.
func TestResetStatsLeavesObsCumulative(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLRU(2, 4)
	l.SetMetrics(NewMetrics(reg, "lru"))

	l.Access(0)
	l.Access(0)
	l.ResetStats()
	if h, m, e := l.Stats(); h != 0 || m != 0 || e != 0 {
		t.Fatalf("Stats after reset = %d/%d/%d, want zeros", h, m, e)
	}
	if got := counterValue(t, reg, `buffer_hits_total{policy="lru"}`); got != 1 {
		t.Errorf("obs hits after ResetStats = %v, want cumulative 1", got)
	}
	if got := counterValue(t, reg, `buffer_misses_total{policy="lru"}`); got != 1 {
		t.Errorf("obs misses after ResetStats = %v, want cumulative 1", got)
	}
}

// TestPoolReadFailureMetric: pool read failures reach the obs mirror.
func TestPoolReadFailureMetric(t *testing.T) {
	reg := obs.NewRegistry()
	src := &fakeSource{pageSize: 8, numPages: 4, failOn: map[int]bool{1: true}}
	p := NewPool(src, 2, 4)
	p.SetMetrics(NewMetrics(reg, "lru"))

	if _, err := p.Get(1); err == nil {
		t.Fatal("expected read error")
	}
	if p.FailedReads() != 1 {
		t.Fatalf("FailedReads = %d, want 1", p.FailedReads())
	}
	if got := counterValue(t, reg, `buffer_read_failures_total{policy="lru"}`); got != 1 {
		t.Errorf("obs read failures = %v, want 1", got)
	}
}

// TestPoolDirtyMetricsExported: the write-path counters — pages
// dirtied, write-backs, and failed write-backs — reach the obs mirror
// and render in the Prometheus text exposition, so a dashboard can
// alert on failed write-backs the same way it does on failed reads.
func TestPoolDirtyMetricsExported(t *testing.T) {
	reg := obs.NewRegistry()
	src := &fakeSource{pageSize: 8, numPages: 4}
	sink := newFakeSink(8)
	sink.failOn[0] = true
	p := NewPool(src, 1, 4)
	p.SetSink(sink)
	p.SetMetrics(NewMetrics(reg, "lru"))

	if err := p.Put(0, pattern(8, 0xD0)); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushDirty(); err == nil {
		t.Fatal("flush into a failing sink succeeded")
	}
	sink.failOn[0] = false
	if err := p.FlushDirty(); err != nil {
		t.Fatalf("flush after sink healed: %v", err)
	}
	if p.FailedWrites() != 1 {
		t.Fatalf("FailedWrites = %d, want 1", p.FailedWrites())
	}
	checks := map[string]float64{
		`buffer_pages_dirtied_total{policy="lru"}`:  1,
		`buffer_write_backs_total{policy="lru"}`:    1,
		`buffer_write_failures_total{policy="lru"}`: 1,
	}
	for name, want := range checks {
		if got := counterValue(t, reg, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	var export strings.Builder
	if err := obs.WritePrometheus(&export, reg); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`buffer_write_failures_total{policy="lru"} 1`,
		`# TYPE buffer_write_failures_total counter`,
	} {
		if !strings.Contains(export.String(), line) {
			t.Errorf("Prometheus export missing %q", line)
		}
	}
}

func TestPolicyName(t *testing.T) {
	if got := PolicyName(&LRU{}); got != "lru" {
		t.Errorf("PolicyName(LRU) = %q", got)
	}
	if got := PolicyName(&Clock{}); got != "clock" {
		t.Errorf("PolicyName(Clock) = %q", got)
	}
}

package analysis

import "testing"

func atomiccheckAnalyzer() *Analyzer {
	return &Analyzer{Name: "atomiccheck", CheckModule: checkAtomic}
}

// TestAtomicCheckFixture covers the legacy atomic.* API: a field updated
// atomically must not also be read plainly, unless the plain access holds
// a lock that is held at every atomic site.
func TestAtomicCheckFixture(t *testing.T) {
	runModuleFixture(t, atomiccheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestAtomicCheckFixture/p",
		src: `package p

import (
	"sync"
	"sync/atomic"
)

type Counter struct{ n uint64 }

func (c *Counter) Inc() {
	atomic.AddUint64(&c.n, 1)
}

func (c *Counter) Racy() uint64 {
	return c.n // WANT
}

type Dominated struct {
	mu sync.Mutex
	n  uint64
}

func (d *Dominated) Inc() {
	d.mu.Lock()
	atomic.AddUint64(&d.n, 1)
	d.mu.Unlock()
}

func (d *Dominated) Read() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}

type HalfGuarded struct {
	mu sync.Mutex
	n  uint64
}

func (h *HalfGuarded) IncLocked() {
	h.mu.Lock()
	atomic.AddUint64(&h.n, 1)
	h.mu.Unlock()
}

func (h *HalfGuarded) IncBare() {
	atomic.AddUint64(&h.n, 1)
}

func (h *HalfGuarded) Read() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n // WANT
}
`,
	}})
}

// TestAtomicCheckTypedFixture covers the typed atomics: method access is
// the only legal use; copying the field is a plain access (the copy is a
// non-atomic 8-byte read however it is spelled).
func TestAtomicCheckTypedFixture(t *testing.T) {
	runModuleFixture(t, atomiccheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestAtomicCheckTypedFixture/p",
		src: `package p

import "sync/atomic"

type Stats struct {
	hits atomic.Uint64
}

func (s *Stats) Hit() {
	s.hits.Add(1)
}

func (s *Stats) Value() uint64 {
	return s.hits.Load()
}

func (s *Stats) Leak() atomic.Uint64 {
	return s.hits // WANT
}
`,
	}})
}

// TestAtomicCheckHeldOnEveryPath: the guard is the lock held on every
// path to the plain access. An early-out branch that unlocks and returns
// leaves the lock held after it (EarlyOut is clean); a lock taken on one
// branch only guards nothing after the branches meet (MaybeLocked).
func TestAtomicCheckHeldOnEveryPath(t *testing.T) {
	runModuleFixture(t, atomiccheckAnalyzer(), []fixtureFile{{
		path: "fixture/TestAtomicCheckHeldOnEveryPath/p",
		src: `package p

import (
	"sync"
	"sync/atomic"
)

type EarlyOut struct {
	mu sync.Mutex
	n  uint64
}

func (e *EarlyOut) Inc() {
	e.mu.Lock()
	atomic.AddUint64(&e.n, 1)
	e.mu.Unlock()
}

func (e *EarlyOut) Read(skip bool) uint64 {
	e.mu.Lock()
	if skip {
		e.mu.Unlock()
		return 0
	}
	v := e.n
	e.mu.Unlock()
	return v
}

type MaybeLocked struct {
	mu sync.Mutex
	n  uint64
}

func (m *MaybeLocked) Inc() {
	m.mu.Lock()
	atomic.AddUint64(&m.n, 1)
	m.mu.Unlock()
}

func (m *MaybeLocked) Read(lock bool) uint64 {
	if lock {
		m.mu.Lock()
	}
	v := m.n // WANT
	if lock {
		m.mu.Unlock()
	}
	return v
}
`,
	}})
}

// TestAtomicCheckRealRepoClean asserts the repository mixes no plain
// accesses into its atomic fields — in particular the obs package's
// typed-atomic counters, gauges, and histograms come out clean.
func TestAtomicCheckRealRepoClean(t *testing.T) {
	m := loadRepoModule(t)
	for _, f := range checkAtomic(m) {
		t.Errorf("unexpected atomiccheck finding in repository: %s", f)
	}
}

// TestAtomicFactRealRepo pins the usesAtomic fact on the obs hot-path
// methods: sharecheck relies on it to bless captured metric handles, so
// a refactor away from atomics must fail here.
func TestAtomicFactRealRepo(t *testing.T) {
	g := loadRepoModule(t).Graph
	for _, name := range []string{"obs.(*Counter).Add", "obs.(*Counter).Inc", "obs.(*Gauge).Set", "obs.(*Histogram).Observe"} {
		if n := one(t, g, name); n.Facts&FactUsesAtomic == 0 {
			t.Errorf("%s facts = %s, want usesAtomic", n, n.Facts)
		}
	}
}

package obs

import (
	"io"
	"math"
	"strconv"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", L("kind", "read"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("reqs_total", L("kind", "read")); again != c {
		t.Error("same identity returned a different counter")
	}
	if other := r.Counter("reqs_total", L("kind", "write")); other == c {
		t.Error("different labels returned the same counter")
	}

	g := r.Gauge("fill")
	g.Set(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Errorf("gauge = %g, want 1.5", got)
	}

	h := r.Histogram("latency_seconds")
	for _, v := range []float64{0.5, 1, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("hist count = %d, want 4", h.Count())
	}
	if h.Sum() != 104.5 {
		t.Errorf("hist sum = %g, want 104.5", h.Sum())
	}
}

func TestLabelOrderIsIdentityIrrelevant(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", L("a", "1"), L("b", "2"))
	b := r.Counter("x_total", L("b", "2"), L("a", "1"))
	if a != b {
		t.Error("label order changed metric identity")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("gauge lookup of a counter name did not panic")
		}
	}()
	r.Gauge("m")
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {0.999, 0},
		{1, 1}, {1.5, 1}, {2, 2}, {3, 2}, {4, 3},
		{math.MaxFloat64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestNilRegistryAndMetricsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total")
	g := r.Gauge("x")
	h := r.Histogram("x_hist")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry handed out non-nil metrics")
	}
	c.Inc()
	c.Add(10)
	g.Set(1)
	g.Add(1)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil metrics reported non-zero values")
	}
	if r.Snapshot() != nil {
		t.Error("nil registry snapshot is non-nil")
	}
}

// TestObsDisabledZeroAlloc is the disabled-path contract: every operation
// instrumented code performs against nil metrics must be allocation-free.
// CI runs this test (and BenchmarkObsDisabled) in the obs job.
func TestObsDisabledZeroAlloc(t *testing.T) {
	var r *Registry
	var c *Counter
	var g *Gauge
	var h *Histogram
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(1)
		h.Observe(2)
		_ = r.Snapshot()
	}); allocs != 0 {
		t.Errorf("disabled obs path allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestObsEnabledZeroAlloc is the enabled-path contract: the write
// paths instrumented code calls per operation allocate nothing on live
// metrics either. It counts the mallocs of the whole run, not a per-call
// average, which would round a structure that grows now and then down to
// 0; the counter is fresh, declared inside the run, so no growth it
// could make happened before the count starts.
func TestObsEnabledZeroAlloc(t *testing.T) {
	r := NewRegistry()
	counter := r.Counter("ops_total")
	g := r.Gauge("level")
	h := r.Histogram("latency")
	if allocs := testing.AllocsPerRun(1, func() {
		var c Counter
		for i := 0; i < 1<<20; i++ {
			c.Inc()
		}
		for i := 0; i < 1<<12; i++ {
			v := float64(i)
			counter.Add(2)
			g.Set(v)
			g.Add(1)
			h.Observe(v)
		}
		if c.Value() != 1<<20 {
			t.Errorf("counter holds %d", c.Value())
		}
	}); allocs != 0 {
		t.Errorf("enabled obs path: %v mallocs in the run, want 0", allocs)
	}
}

// BenchmarkObsDisabled measures the disabled hot path (what every
// uninstrumented run pays). The zero-alloc guard is the allocs/op column.
func BenchmarkObsDisabled(b *testing.B) {
	var c *Counter
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(1)
	}
}

// BenchmarkObsEnabled documents the enabled-path cost for comparison.
func BenchmarkObsEnabled(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("x_total")
	h := r.Histogram("x_hist")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(1)
	}
}

// TestRegistryConcurrency drives registration and updates from many
// goroutines; run under -race this is the registry's race test.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared_total").Inc()
				r.Counter("mod_total", L("m", string(rune('a'+i%3)))).Inc()
				r.Gauge("g").Set(float64(i))
				r.Histogram("h").Observe(float64(i % 7))
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != goroutines*perG {
		t.Errorf("shared counter = %d, want %d", got, goroutines*perG)
	}
	var mod uint64
	for _, m := range []string{"a", "b", "c"} {
		mod += r.Counter("mod_total", L("m", m)).Value()
	}
	if mod != goroutines*perG {
		t.Errorf("labeled counters sum to %d, want %d", mod, goroutines*perG)
	}
	if got := r.Histogram("h").Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestRegistryConcurrentExport drives two goroutines registering and
// updating series in one registry while a third continuously snapshots
// and renders it; run under -race this exercises the registration/export
// locking (an exporter must be able to run mid-registration without
// tearing). Final totals check no increment was lost.
func TestRegistryConcurrentExport(t *testing.T) {
	r := NewRegistry()
	const writers = 2
	const rounds = 200
	const perRound = 17
	var writeWG, exportWG sync.WaitGroup
	stop := make(chan struct{})
	exportWG.Add(1)
	go func() {
		defer exportWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := WriteText(io.Discard, r); err != nil {
				t.Errorf("WriteText during updates: %v", err)
				return
			}
			_ = r.Snapshot()
		}
	}()
	for g := 0; g < writers; g++ {
		writeWG.Add(1)
		go func(g int) {
			defer writeWG.Done()
			for i := 0; i < rounds; i++ {
				r.Counter("written_total").Add(perRound)
				r.Counter("round_total", L("round", strconv.Itoa(i))).Inc()
				r.Histogram("lat").Observe(float64(g*rounds + i))
			}
		}(g)
	}
	writeWG.Wait()
	close(stop)
	exportWG.Wait()
	if got := r.Counter("written_total").Value(); got != writers*rounds*perRound {
		t.Errorf("counter = %d, want %d", got, writers*rounds*perRound)
	}
	if got := r.Histogram("lat").Count(); got != writers*rounds {
		t.Errorf("histogram count = %d, want %d", got, writers*rounds)
	}
	if got := len(r.Snapshot()); got != rounds+2 {
		t.Errorf("registry holds %d series, want %d", got, rounds+2)
	}
}

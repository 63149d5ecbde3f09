package obs

import (
	"io"
	"math"
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
	r.Merge(NewRegistry()) // must not panic
	NewRegistry().Merge(r) // must not panic
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

func TestMergeAddsCountersAndHistograms(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("c_total").Add(10)
	dst.Histogram("h").Observe(1)
	dst.Gauge("g").Set(1)

	src := NewRegistry()
	src.Counter("c_total").Add(5)
	src.Counter("only_src_total").Add(7)
	src.Histogram("h").Observe(3)
	src.Gauge("g").Set(9)

	dst.Merge(src)
	if got := dst.Counter("c_total").Value(); got != 15 {
		t.Errorf("merged counter = %d, want 15", got)
	}
	if got := dst.Counter("only_src_total").Value(); got != 7 {
		t.Errorf("merged new counter = %d, want 7", got)
	}
	h := dst.Histogram("h")
	if h.Count() != 2 || h.Sum() != 4 {
		t.Errorf("merged histogram count=%d sum=%g, want 2 and 4", h.Count(), h.Sum())
	}
	if got := dst.Gauge("g").Value(); got != 9 {
		t.Errorf("merged gauge = %g, want 9 (src wins)", got)
	}
}

// TestMergeDisjointAndOverlappingLabelSets: merging registries whose
// (name, labels) identities partially overlap must add the overlapping
// series (down to histogram buckets) and copy the disjoint ones.
func TestMergeDisjointAndOverlappingLabelSets(t *testing.T) {
	dst := NewRegistry()
	dst.Counter("hits_total", L("policy", "lru")).Add(3)
	dst.Counter("hits_total", L("policy", "2q")).Add(5)
	dh := dst.Histogram("lat", L("policy", "lru"))
	dh.Observe(1)
	dh.Observe(3)

	src := NewRegistry()
	src.Counter("hits_total", L("policy", "lru")).Add(4)      // overlaps
	src.Counter("hits_total", L("policy", "clockpro")).Add(9) // disjoint
	sh := src.Histogram("lat", L("policy", "lru"))            // overlaps
	sh.Observe(3)
	sh.Observe(100)
	src.Histogram("lat", L("policy", "2q")).Observe(7) // disjoint

	dst.Merge(src)

	if got := dst.Counter("hits_total", L("policy", "lru")).Value(); got != 7 {
		t.Errorf("overlapping counter = %d, want 7", got)
	}
	if got := dst.Counter("hits_total", L("policy", "2q")).Value(); got != 5 {
		t.Errorf("dst-only counter = %d, want 5 (untouched)", got)
	}
	if got := dst.Counter("hits_total", L("policy", "clockpro")).Value(); got != 9 {
		t.Errorf("src-only counter = %d, want 9 (copied)", got)
	}
	merged := dst.Histogram("lat", L("policy", "lru"))
	if merged.Count() != 4 || merged.Sum() != 107 {
		t.Errorf("overlapping histogram count=%d sum=%g, want 4 and 107", merged.Count(), merged.Sum())
	}
	if got := dst.Histogram("lat", L("policy", "2q")).Count(); got != 1 {
		t.Errorf("src-only histogram count = %d, want 1 (copied)", got)
	}
	// Bucket-level check on the overlapping histogram: 1 → bucket le=2,
	// 3+3 → bucket le=4, 100 → bucket le=128.
	for _, s := range dst.Snapshot() {
		if s.Kind != KindHistogram || len(s.Labels) == 0 || s.Labels[0].Value != "lru" {
			continue
		}
		got := map[float64]uint64{}
		for _, b := range s.Buckets {
			got[b.UpperBound] = b.Count
		}
		want := map[float64]uint64{2: 1, 4: 2, 128: 1}
		for ub, n := range want {
			if got[ub] != n {
				t.Errorf("merged bucket le=%g count = %d, want %d", ub, got[ub], n)
			}
		}
	}
}

// TestRegistryConcurrentMergeExport drives two goroutines merging replica
// registries into one destination while a third continuously snapshots
// and renders it; run under -race this exercises the Merge/export locking
// (Merge holds only the source lock while copying, then folds through the
// destination's own locked lookups — an exporter must be able to run
// mid-merge without tearing). Final counter totals check no increment was
// lost.
func TestRegistryConcurrentMergeExport(t *testing.T) {
	dst := NewRegistry()
	const mergers = 2
	const merges = 200
	const perSrc = 17
	var mergeWG, exportWG sync.WaitGroup
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
			if err := WriteText(io.Discard, dst); err != nil {
				t.Errorf("WriteText during merges: %v", err)
				return
			}
			_ = dst.Snapshot()
		}
	}()
	for g := 0; g < mergers; g++ {
		mergeWG.Add(1)
		go func(g int) {
			defer mergeWG.Done()
			for i := 0; i < merges; i++ {
				src := NewRegistry()
				src.Counter("merged_total").Add(perSrc)
				src.Histogram("lat").Observe(float64(g*merges + i))
				dst.Merge(src)
			}
		}(g)
	}
	mergeWG.Wait()
	close(stop)
	exportWG.Wait()
	if got := dst.Counter("merged_total").Value(); got != mergers*merges*perSrc {
		t.Errorf("merged counter = %d, want %d", got, mergers*merges*perSrc)
	}
	if got := dst.Histogram("lat").Count(); got != mergers*merges {
		t.Errorf("merged histogram count = %d, want %d", got, mergers*merges)
	}
}

// TestMergeDeterministic: merging the same replica registries in the same
// order yields identical snapshots — the property RunParallel relies on.
func TestMergeDeterministic(t *testing.T) {
	build := func() *Registry {
		root := NewRegistry()
		for rep := 0; rep < 4; rep++ {
			r := NewRegistry()
			for i := 0; i <= rep; i++ {
				r.Counter("replica_total").Inc()
				r.Histogram("work").Observe(float64(rep))
			}
			root.Merge(r)
		}
		return root
	}
	a, b := build(), build()
	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("snapshot lengths differ: %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].FullName() != sb[i].FullName() || sa[i].Value != sb[i].Value ||
			sa[i].Count != sb[i].Count || sa[i].Sum != sb[i].Sum {
			t.Errorf("sample %d differs: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}

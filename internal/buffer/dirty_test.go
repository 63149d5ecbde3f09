package buffer

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"rtreebuf/internal/obs"
)

// fakeSink records write-backs in arrival order and can be told to fail.
type fakeSink struct {
	pageSize int
	pages    map[int][]byte
	order    []int
	failOn   map[int]bool
	fails    int
}

func newFakeSink(pageSize int) *fakeSink {
	return &fakeSink{pageSize: pageSize, pages: make(map[int][]byte), failOn: make(map[int]bool)}
}

func (s *fakeSink) WritePage(page int, data []byte) error {
	if s.failOn[page] {
		s.fails++
		return errors.New("injected write failure")
	}
	s.pages[page] = append([]byte(nil), data...)
	s.order = append(s.order, page)
	return nil
}

func pattern(pageSize int, b byte) []byte {
	data := make([]byte, pageSize)
	for i := range data {
		data[i] = b
	}
	return data
}

func TestPoolPutFlushDirty(t *testing.T) {
	src := &fakeSource{pageSize: 16, numPages: 8}
	sink := newFakeSink(16)
	p := NewPool(src, 4, 8)
	p.SetSink(sink)
	// Dirty in descending order; the flush must still run ascending.
	for _, page := range []int{5, 2, 7} {
		if err := p.Put(page, pattern(16, byte(0xA0+page))); err != nil {
			t.Fatalf("Put(%d): %v", page, err)
		}
	}
	if p.DirtyPages() != 3 {
		t.Fatalf("DirtyPages = %d, want 3", p.DirtyPages())
	}
	// Put is a write, not a read: no source reads, no misses.
	if src.reads != 0 {
		t.Fatalf("Put issued %d source reads", src.reads)
	}
	if _, misses, _ := p.Stats(); misses != 0 {
		t.Fatalf("Put counted %d misses", misses)
	}
	// Reads see the put contents without touching the source.
	got, err := p.Get(5)
	if err != nil || !bytes.Equal(got, pattern(16, 0xA5)) {
		t.Fatalf("Get(5) after Put = %v, %v", got[:2], err)
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
	if p.DirtyPages() != 0 {
		t.Fatalf("DirtyPages after flush = %d", p.DirtyPages())
	}
	wantOrder := []int{2, 5, 7}
	if len(sink.order) != 3 || sink.order[0] != 2 || sink.order[1] != 5 || sink.order[2] != 7 {
		t.Fatalf("flush order = %v, want %v", sink.order, wantOrder)
	}
	for _, page := range wantOrder {
		if !bytes.Equal(sink.pages[page], pattern(16, byte(0xA0+page))) {
			t.Fatalf("sink page %d holds wrong bytes", page)
		}
	}
	// Idempotent: nothing left to write.
	if err := p.FlushDirty(); err != nil || len(sink.order) != 3 {
		t.Fatalf("second flush wrote again: %v, order %v", err, sink.order)
	}
}

// Every operation that evicts from a full pool — a fault, a Put of an
// absent page, a Pin — writes the dirty pages back first, the page the
// policy then drops among them.
func TestPoolEvictionWritesBackDirtyVictim(t *testing.T) {
	src := &fakeSource{pageSize: 16, numPages: 8}
	sink := newFakeSink(16)
	p := NewPool(src, 2, 8)
	p.SetSink(sink)
	if err := p.Put(0, pattern(16, 0xB0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(1, pattern(16, 0xB1)); err != nil {
		t.Fatal(err)
	}
	// Faulting page 2 evicts page 0 (LRU) — but only after writing it
	// back, and page 1 with it.
	if _, err := p.Get(2); err != nil {
		t.Fatalf("Get(2): %v", err)
	}
	if !bytes.Equal(sink.pages[0], pattern(16, 0xB0)) || !bytes.Equal(sink.pages[1], pattern(16, 0xB1)) {
		t.Fatal("dirty pages not written back before the fault evicted")
	}
	if p.DirtyPages() != 0 || p.policy.Contains(0) {
		t.Fatalf("DirtyPages = %d, page 0 resident %v; want a clean pool without page 0", p.DirtyPages(), p.policy.Contains(0))
	}
	// Put of an absent page over a full pool: same contract.
	if err := p.Put(3, pattern(16, 0xB3)); err != nil {
		t.Fatalf("Put(3): %v", err)
	}
	if err := p.Put(4, pattern(16, 0xB4)); err != nil {
		t.Fatalf("Put(4): %v", err)
	}
	if !bytes.Equal(sink.pages[3], pattern(16, 0xB3)) {
		t.Fatal("dirty page 3 not written back before Put evicted")
	}
	// Pin over a full pool: same contract.
	if err := p.Pin(5); err != nil {
		t.Fatalf("Pin(5): %v", err)
	}
	if !bytes.Equal(sink.pages[4], pattern(16, 0xB4)) {
		t.Fatal("dirty page 4 not written back before Pin evicted")
	}
	if want := []int{0, 1, 3, 4}; !slices.Equal(sink.order, want) {
		t.Fatalf("write-backs %v, want %v: each page once, before the eviction that followed", sink.order, want)
	}
}

func TestPoolWriteBackFailureFailsOperation(t *testing.T) {
	src := &fakeSource{pageSize: 16, numPages: 8}
	sink := newFakeSink(16)
	sink.failOn[0] = true
	p := NewPool(src, 1, 8)
	p.SetSink(sink)
	if err := p.Put(0, pattern(16, 0xC0)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(1); err == nil {
		t.Fatal("Get whose dirty victim cannot be written back succeeded")
	}
	if p.FailedWrites() != 1 {
		t.Fatalf("FailedWrites = %d, want 1", p.FailedWrites())
	}
	// Nothing lost: the page is still resident, dirty, and readable.
	if p.DirtyPages() != 1 {
		t.Fatalf("DirtyPages = %d, want 1", p.DirtyPages())
	}
	got, err := p.Get(0)
	if err != nil || !bytes.Equal(got, pattern(16, 0xC0)) {
		t.Fatalf("dirty page lost after failed write-back: %v", err)
	}
	// Once the sink heals, the operation goes through.
	sink.failOn[0] = false
	if _, err := p.Get(1); err != nil {
		t.Fatalf("Get after sink healed: %v", err)
	}
	if !bytes.Equal(sink.pages[0], pattern(16, 0xC0)) {
		t.Fatal("healed write-back wrote wrong bytes")
	}
	if p.FailedWrites() != 1 {
		t.Fatalf("FailedWrites = %d after recovery, want 1", p.FailedWrites())
	}
}

func TestPoolFlushStopsAtFailure(t *testing.T) {
	src := &fakeSource{pageSize: 16, numPages: 8}
	sink := newFakeSink(16)
	sink.failOn[3] = true
	p := NewPool(src, 8, 8)
	p.SetSink(sink)
	for _, page := range []int{1, 3, 5} {
		if err := p.Put(page, pattern(16, byte(page))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.FlushDirty(); err == nil {
		t.Fatal("flush through a failing sink succeeded")
	}
	// Page 1 flushed; 3 and 5 remain dirty for the retry, and they are all
	// the dirty list remembers.
	if p.DirtyPages() != 2 || len(p.dirtyList) != 2 {
		t.Fatalf("DirtyPages = %d, dirty list %v, want pages 3 and 5", p.DirtyPages(), p.dirtyList)
	}
	sink.failOn[3] = false
	if err := p.FlushDirty(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	if p.DirtyPages() != 0 || len(p.dirtyList) != 0 || len(sink.order) != 3 {
		t.Fatalf("retry left %d dirty (list %v), wrote %v", p.DirtyPages(), p.dirtyList, sink.order)
	}
}

func TestPoolPutWithoutSink(t *testing.T) {
	src := &fakeSource{pageSize: 16, numPages: 4}
	p := NewPool(src, 4, 4)
	if err := p.Put(0, pattern(16, 1)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := p.FlushDirty(); err == nil {
		t.Fatal("FlushDirty with no sink succeeded")
	}
}

func TestPoolGrow(t *testing.T) {
	src := &fakeSource{pageSize: 16, numPages: 4}
	sink := newFakeSink(16)
	p := NewPool(src, 4, 4)
	p.SetSink(sink)
	if err := p.Put(6, pattern(16, 6)); err == nil {
		t.Fatal("Put past the page space accepted")
	}
	p.Grow(8)
	if err := p.Put(6, pattern(16, 6)); err != nil {
		t.Fatalf("Put after Grow: %v", err)
	}
	got, err := p.Get(6)
	if err != nil || !bytes.Equal(got, pattern(16, 6)) {
		t.Fatalf("Get(6) after Grow: %v", err)
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatalf("FlushDirty: %v", err)
	}
}

func TestPoolDirtyMetricsMirrored(t *testing.T) {
	src := &fakeSource{pageSize: 16, numPages: 8}
	sink := newFakeSink(16)
	sink.failOn[2] = true
	p := NewPool(src, 8, 8)
	p.SetSink(sink)
	reg := obs.NewRegistry()
	p.SetMetrics(NewMetrics(reg, "lru"))
	if err := p.Put(1, pattern(16, 1)); err != nil {
		t.Fatal(err)
	}
	if err := p.Put(2, pattern(16, 2)); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushDirty(); err == nil {
		t.Fatal("flush through failing sink succeeded")
	}
	sink.failOn[2] = false
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		`buffer_pages_dirtied_total{policy="lru"}`:  2,
		`buffer_write_backs_total{policy="lru"}`:    2,
		`buffer_write_failures_total{policy="lru"}`: 1,
	} {
		if got := counterValue(t, reg, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if p.FailedWrites() != 1 {
		t.Fatalf("FailedWrites = %d, want 1", p.FailedWrites())
	}
}

// TestCommitWriteSequenceUnchanged pins what the page file sees of a
// commit. commitUpdate puts a batch's pages in ascending order and ends
// with FlushDirty; through a pool that is full — so that puts of absent
// pages evict, and write back before they do — every page of the batch
// still reaches the sink exactly once, in batch order.
func TestCommitWriteSequenceUnchanged(t *testing.T) {
	const pageSize, numPages, capacity = 16, 32, 4
	fill := func(p *Pool) {
		t.Helper()
		for page := numPages - capacity; page < numPages; page++ {
			if _, err := p.Get(page); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	for size := 1; size <= 6; size++ {
		for trial := 0; trial < 20; trial++ {
			src := &fakeSource{pageSize: pageSize, numPages: numPages}
			sink := newFakeSink(pageSize)
			p := NewPool(src, capacity, numPages)
			p.SetSink(sink)
			fill(p)
			batch := rng.Perm(numPages)[:size] // resident and absent pages alike
			slices.Sort(batch)
			for _, page := range batch {
				if err := p.Put(page, pattern(pageSize, byte(page))); err != nil {
					t.Fatalf("Put(%d): %v", page, err)
				}
			}
			if err := p.FlushDirty(); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(sink.order, batch) {
				t.Fatalf("batch %v reached the sink as %v", batch, sink.order)
			}
		}
	}

	// A fault into a full pool holding dirty pages writes them all back,
	// in page order, before the policy evicts, and the access reports them.
	src := &fakeSource{pageSize: pageSize, numPages: numPages}
	sink := newFakeSink(pageSize)
	p := NewPool(src, capacity, numPages)
	p.SetSink(sink)
	fill(p)
	for _, page := range []int{numPages - 1, numPages - 3} {
		if err := p.Put(page, pattern(pageSize, byte(page))); err != nil {
			t.Fatal(err)
		}
	}
	info, err := p.View(0, func([]byte) {})
	if err != nil || info.Hit || info.WriteBacks != 2 || p.DirtyPages() != 0 {
		t.Fatalf("fault into a full dirty pool: info=%+v err=%v, %d pages still dirty; want a miss with 2 write-backs", info, err, p.DirtyPages())
	}
	if want := []int{numPages - 3, numPages - 1}; !slices.Equal(sink.order, want) {
		t.Fatalf("the fault wrote back %v, want %v", sink.order, want)
	}

	// Through a failing sink the access fails after its read: the miss
	// counts, nothing is evicted, and the pages stay dirty and resident.
	for _, page := range []int{numPages - 1, numPages - 2} {
		if err := p.Put(page, pattern(pageSize, byte(page))); err != nil {
			t.Fatal(err)
		}
	}
	sink.failOn[numPages-1] = true
	_, missesBefore, evictionsBefore := p.Stats()
	info, err = p.View(1, func([]byte) { t.Error("callback ran on a failed access") })
	_, misses, evictions := p.Stats()
	if err == nil || info.WriteBacks != 1 || misses != missesBefore+1 || evictions != evictionsBefore {
		t.Fatalf("fault through a failing sink: info=%+v err=%v, misses %d->%d, evictions %d->%d; want an error after one write-back, one more miss, no eviction",
			info, err, missesBefore, misses, evictionsBefore, evictions)
	}
	if p.FailedWrites() != 1 || p.DirtyPages() != 1 || !p.dirty[numPages-1] || p.Resident() != capacity {
		t.Fatalf("after the failed write-back: %d failed writes, %d dirty pages, %d resident; want 1, 1 (page %d), %d",
			p.FailedWrites(), p.DirtyPages(), p.Resident(), numPages-1, capacity)
	}
	got, err := p.Get(numPages - 1)
	if err != nil || !bytes.Equal(got, pattern(pageSize, byte(numPages-1))) {
		t.Fatalf("dirty page lost after the failed write-back: %v", err)
	}
}

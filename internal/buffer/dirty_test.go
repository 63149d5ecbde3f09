package buffer

import (
	"bytes"
	"errors"
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
	// Faulting page 2 must evict page 0 (LRU) — but only after writing
	// it back.
	if _, err := p.Get(2); err != nil {
		t.Fatalf("Get(2): %v", err)
	}
	if !bytes.Equal(sink.pages[0], pattern(16, 0xB0)) {
		t.Fatal("evicted dirty page 0 not written back")
	}
	if p.DirtyPages() != 1 {
		t.Fatalf("DirtyPages = %d, want 1 (page 1)", p.DirtyPages())
	}
	// Put over a full pool write-backs the dirty victim too.
	if err := p.Put(3, pattern(16, 0xB3)); err != nil {
		t.Fatalf("Put(3): %v", err)
	}
	if _, ok := sink.pages[1]; !ok {
		t.Fatal("dirty victim of Put not written back")
	}
	// Pin over a full pool: same contract.
	if err := p.Put(4, pattern(16, 0xB4)); err != nil {
		t.Fatal(err)
	}
	if err := p.Pin(5); err != nil {
		t.Fatalf("Pin(5): %v", err)
	}
	if _, ok := sink.pages[3]; !ok {
		t.Fatal("dirty victim of Pin not written back")
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

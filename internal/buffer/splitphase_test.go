package buffer

import "testing"

// These tests replay, deterministically, the two interleavings
// ShardedPool can produce between an unlocked source read and the commit
// under the shard mutex: a second fault of the same page finishing first,
// and a pin's read landing on a slot that has no frame yet.

func TestInstallStillRefreshesDuplicateFault(t *testing.T) {
	const pageSize = 32
	src := &faultySource{pageSize: pageSize}
	p := NewPool(src, 4, 8)

	// Two faults of one page both probe a miss and both read the source.
	// The loser commits second: it counts a hit and leaves one frame, the
	// winner's, holding the source bytes.
	if _, ok, err := p.tryGet(5); ok || err != nil {
		t.Fatalf("tryGet(5) = resident %v, err %v; want a clean miss", ok, err)
	}
	winner, loser := make([]byte, pageSize), make([]byte, pageSize)
	for _, buf := range [][]byte{winner, loser} {
		if err := p.src.ReadPage(5, buf); err != nil {
			t.Fatal(err)
		}
	}
	p.install(5, winner)
	frame := &p.frames[5][0]
	p.install(5, loser)
	if &p.frames[5][0] != frame || p.Resident() != 1 || len(p.free) != 0 {
		t.Errorf("losing install left %d resident pages and %d spare frames, want the winner's frame alone", p.Resident(), len(p.free))
	}

	got, err := p.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("page 5 contents %x after duplicate fault", got[0])
	}
	// Winner's install: one miss. Loser's install and the Get: two hits.
	hits, misses, _ := p.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d/%d, want 2 hits, 1 miss", hits, misses)
	}
}

func TestInstallPinnedFillsMissingFrame(t *testing.T) {
	const pageSize = 32
	src := &faultySource{pageSize: pageSize}
	p := NewPool(src, 4, 8)

	need, err := p.preparePin(6)
	if err != nil || !need {
		t.Fatalf("preparePin = %v/%v", need, err)
	}
	// Between the two phases the page is resident but frameless, which
	// readers must see as a miss.
	if _, ok, err := p.tryGet(6); ok || err != nil {
		t.Fatalf("tryGet(6) inside the pin window = resident %v, err %v; want a miss", ok, err)
	}
	buf := make([]byte, pageSize)
	if err := p.src.ReadPage(6, buf); err != nil {
		t.Fatal(err)
	}
	p.installPinned(6, buf)
	got, err := p.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 {
		t.Fatalf("pinned page contents %x", got[0])
	}
	if need, err := p.preparePin(6); need || err != nil {
		t.Errorf("second preparePin = %v/%v, want nothing to read", need, err)
	}
}

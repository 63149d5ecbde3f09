package buffer

import "testing"

// These tests replay, deterministically, the two interleavings
// ShardedPool can produce between its two locked phases — probe and
// commit — around an unlocked source read: a second fault of the same
// page committing first, and a reader arriving inside a pin's read. They
// keep the names they had when the phases were called install and
// installPinned.

func TestInstallStillRefreshesDuplicateFault(t *testing.T) {
	const pageSize = 32
	src := &faultySource{pageSize: pageSize}
	p := NewPool(src, 4, 8)

	// Two faults of one page both probe a miss and both read the source.
	var frames [2][]byte
	for i := range frames {
		frame, hit, err := p.probe(5, false)
		if hit || err != nil {
			t.Fatalf("probe(5) = resident %v, err %v; want a clean miss", hit, err)
		}
		if err := p.src.ReadPage(5, frame); err != nil {
			t.Fatal(err)
		}
		frames[i] = frame
	}
	// The winner's frame becomes the resident one. The loser's commit
	// serves that frame too and counts the read it issued.
	won, err := p.commit(5, frames[0], nil, false)
	if err != nil || &won[0] != &frames[0][0] {
		t.Fatalf("winning commit: err %v, resident frame is not the one read into", err)
	}
	lost, err := p.commit(5, frames[1], nil, false)
	if err != nil || &lost[0] != &frames[0][0] {
		t.Fatalf("losing commit: err %v, want the winner's frame", err)
	}
	if p.Resident() != 1 || len(p.free) != 0 {
		t.Errorf("losing commit left %d resident pages and %d spare frames, want the winner's frame alone", p.Resident(), len(p.free))
	}

	got, err := p.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("page 5 contents %x after duplicate fault", got[0])
	}
	// Two source reads, two misses; the Get is the hit.
	hits, misses, _ := p.Stats()
	if hits != 1 || misses != 2 || src.reads != 2 {
		t.Errorf("stats = %d/%d over %d source reads, want 1 hit, 2 misses, 2 reads", hits, misses, src.reads)
	}
}

func TestInstallPinnedFillsMissingFrame(t *testing.T) {
	const pageSize = 32
	src := &faultySource{pageSize: pageSize}
	p := NewPool(src, 4, 8)

	pinFrame, done, err := p.probe(6, true)
	if err != nil || done {
		t.Fatalf("probe(6, pin) = done %v, err %v; want a frame to read into", done, err)
	}
	// Until the pin commits the page is absent, with no half-made state:
	// a reader arriving now faults it in like any other page.
	if p.Resident() != 0 {
		t.Fatalf("%d pages resident inside the pin window", p.Resident())
	}
	got, err := p.Get(6)
	if err != nil || got[0] != 6 {
		t.Fatalf("Get(6) inside the pin window: %v", err)
	}
	if err := p.src.ReadPage(6, pinFrame); err != nil {
		t.Fatal(err)
	}
	// The pin's commit finds the reader's frame resident and pins that.
	frame, err := p.commit(6, pinFrame, nil, true)
	if pinned := coreOf(t, p.policy).pinned[6]; err != nil || &frame[0] != &got[0] || !pinned {
		t.Fatalf("pin commit: err %v, pinned %v", err, pinned)
	}
	if _, done, err := p.probe(6, true); !done || err != nil {
		t.Errorf("second probe(6, pin) = done %v, err %v; want nothing to read", done, err)
	}
	if hits, misses, _ := p.Stats(); hits != 0 || misses != 2 || src.reads != 2 {
		t.Errorf("stats = %d hits / %d misses over %d source reads, want 0/2/2", hits, misses, src.reads)
	}
}

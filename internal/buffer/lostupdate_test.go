package buffer

import (
	"bytes"
	"testing"
)

// These tests replay, deterministically, the interleavings ShardedPool
// can produce between an unlocked source read and a concurrent Put —
// the lost-update class REVIEW.md flagged. The fault's install must
// never clobber a frame whose contents are ahead of the source (dirty,
// or clean because the newer contents were already flushed), and a
// pin's install must never replace a frame a concurrent Put created.

func repeatByte(pageSize int, b byte) []byte {
	return bytes.Repeat([]byte{b}, pageSize)
}

// beginFault replays the unlocked half of ShardedPool's fault path up
// to the point where the source bytes are staged but not yet committed:
// probe the miss, capture the dirty version, read the source.
func beginFault(t *testing.T, p *Pool, page int) (stale []byte, ver uint32) {
	t.Helper()
	if _, ok, err := p.tryGet(page); ok || err != nil {
		t.Fatalf("tryGet(%d) = resident %v, err %v; want a clean miss", page, ok, err)
	}
	ver = p.dirtyVer[page]
	stale = make([]byte, p.src.PageSize())
	if err := p.src.ReadPage(page, stale); err != nil {
		t.Fatalf("staging source read: %v", err)
	}
	return stale, ver
}

func TestInstallKeepsDirtyFrameOverStaleFault(t *testing.T) {
	const pageSize = 32
	src := &faultySource{pageSize: pageSize}
	p := NewPool(src, 4, 8)
	sink := newConcSink()
	p.SetSink(sink)

	// A fault of page 3 stages its source read; then a Put lands before
	// the fault commits.
	stale, ver := beginFault(t, p, 3)
	want := repeatByte(pageSize, 0xEE)
	if err := p.Put(3, want); err != nil {
		t.Fatal(err)
	}
	p.install(3, stale, ver)

	got, err := p.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stale fault clobbered the dirty frame: got %x, want %x", got[0], want[0])
	}
	if !p.dirty[3] {
		t.Error("page 3 no longer dirty after losing install")
	}
	// The committed contents — not the stale source bytes — reach the sink.
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if !bytes.Equal(sink.pages[3], want) {
		t.Fatalf("sink got %x, want the Put contents %x", sink.pages[3][0], want[0])
	}
}

func TestInstallSkipsStaleRefreshAfterFlush(t *testing.T) {
	const pageSize = 32
	src := &faultySource{pageSize: pageSize}
	p := NewPool(src, 4, 8)
	p.SetSink(newConcSink())

	// Same race, but the Put is flushed before the stale install commits:
	// the frame is clean again, yet still ahead of the staged source
	// bytes. The dirty-version capture is what catches this variant.
	stale, ver := beginFault(t, p, 3)
	want := repeatByte(pageSize, 0xEE)
	if err := p.Put(3, want); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	p.install(3, stale, ver)

	got, err := p.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stale fault clobbered the flushed frame: got %x, want %x", got[0], want[0])
	}
}

// The third variant: the Put is flushed AND the page evicted again before
// the stale install commits. Nothing is resident to protect, but the
// staged bytes are behind the store; installing them as a clean frame
// would serve readers (and the updater) contents the store has already
// moved past. install must refuse, and the retried read sees the Put.
func TestInstallRejectsStaleFaultAfterFlushAndEvict(t *testing.T) {
	const pageSize = 32
	store := newConcStore(pageSize, 8)
	p := NewPool(store, 1, 8)
	p.SetSink(store)

	stale, ver := beginFault(t, p, 3)
	want := stampPage(pageSize, 3, 1)
	if err := p.Put(3, want); err != nil {
		t.Fatal(err)
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(5); err != nil { // capacity 1: evicts the now-clean page 3
		t.Fatal(err)
	}
	if p.install(3, stale, ver) {
		t.Error("install accepted bytes staged before a Put that was since flushed and evicted")
	}
	got, err := p.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("page 3 reverted to the pre-Put contents: got version %d, want 1", got[4])
	}
}

// raceStore runs race once, inside the first ReadPage of page on, after
// the bytes are staged — the window ShardedPool leaves open by reading
// the source with no lock held.
type raceStore struct {
	*concStore
	on   int
	race func()
}

func (r *raceStore) ReadPage(page int, dst []byte) error {
	err := r.concStore.ReadPage(page, dst)
	if race := r.race; page == r.on && race != nil {
		r.race = nil
		race()
	}
	return err
}

// The same interleaving end to end, through View: ShardedPool's fault must
// notice the refused install and start the access over — the callback
// runs once, on the re-read bytes, never on the staged ones — and the
// attribution it reports covers both attempts: still a miss, with the
// write-backs of the wasted fault counted in.
func TestShardedPoolRereadsStaleFault(t *testing.T) {
	const pageSize = 32
	for _, tc := range []struct {
		name       string
		evict      func(p *ShardedPool) error // capacity 1: takes the frame of the now-clean page 3
		writeBacks int
		misses     uint64
	}{
		// Three source reads, three misses: page 5, the wasted read, the re-read.
		{"evicted by a read", func(p *ShardedPool) error { _, err := p.Get(5); return err }, 0, 3},
		// Page 5 is resident and dirty when the stale fault tries to
		// install: that attempt writes it back before it is refused.
		{"evicted by a Put", func(p *ShardedPool) error { return p.Put(5, stampPage(pageSize, 5, 1)) }, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &raceStore{concStore: newConcStore(pageSize, 8), on: 3}
			p := NewShardedPool(store, 1, 8, 1)
			p.SetSink(store)
			want := stampPage(pageSize, 3, 1)
			store.race = func() {
				if err := p.Put(3, want); err != nil {
					t.Error(err)
				}
				if err := p.FlushDirty(); err != nil {
					t.Error(err)
				}
				if err := tc.evict(p); err != nil {
					t.Error(err)
				}
			}
			calls := 0
			info, err := p.View(3, func(frame []byte) {
				calls++
				if !bytes.Equal(frame, want) {
					t.Errorf("View(3) lent version %d staged before the Put, want 1", frame[4])
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if calls != 1 {
				t.Errorf("callback ran %d times, want once", calls)
			}
			if info.Hit || info.WriteBacks != tc.writeBacks {
				t.Errorf("attribution %+v, want a miss with %d write-backs", info, tc.writeBacks)
			}
			if hits, misses, _ := p.Stats(); hits != 0 || misses != tc.misses {
				t.Errorf("stats = %d hits / %d misses, want 0/%d", hits, misses, tc.misses)
			}
		})
	}
}

func TestInstallStillRefreshesDuplicateFault(t *testing.T) {
	const pageSize = 32
	src := &faultySource{pageSize: pageSize}
	p := NewPool(src, 4, 8)

	// The benign race: two faults of one page, no write in the window.
	// The loser commits second, counts a hit, and the contents stay the
	// canonical source bytes.
	stale, ver := beginFault(t, p, 5)
	winner := make([]byte, pageSize)
	if err := p.src.ReadPage(5, winner); err != nil {
		t.Fatal(err)
	}
	p.install(5, winner, ver)
	p.install(5, stale, ver)

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

func TestInstallPinnedKeepsConcurrentPutFrame(t *testing.T) {
	const pageSize = 32
	src := &faultySource{pageSize: pageSize}
	p := NewPool(src, 4, 8)
	sink := newConcSink()
	p.SetSink(sink)

	// A Pin of page 2 stages its source read; a Put lands in the window.
	need, ver, err := p.preparePin(2)
	if err != nil || !need {
		t.Fatalf("preparePin = %v/%v, want a read needed", need, err)
	}
	stale := make([]byte, pageSize)
	if err := p.src.ReadPage(2, stale); err != nil {
		t.Fatal(err)
	}
	want := repeatByte(pageSize, 0xCD)
	if err := p.Put(2, want); err != nil {
		t.Fatal(err)
	}
	p.installPinned(2, stale, ver)

	got, err := p.Get(2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("installPinned clobbered the dirty frame: got %x, want %x", got[0], want[0])
	}
	if !p.dirty[2] {
		t.Error("page 2 no longer dirty after pin install")
	}
	if !p.policy.Pinned(2) {
		t.Error("page 2 not pinned")
	}
	if err := p.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if !bytes.Equal(sink.pages[2], want) {
		t.Fatalf("sink got %x, want the Put contents %x", sink.pages[2][0], want[0])
	}
}

func TestInstallPinnedFillsMissingFrame(t *testing.T) {
	const pageSize = 32
	src := &faultySource{pageSize: pageSize}
	p := NewPool(src, 4, 8)

	// No race: the normal pin path still installs the read bytes.
	need, ver, err := p.preparePin(6)
	if err != nil || !need {
		t.Fatalf("preparePin = %v/%v", need, err)
	}
	buf := make([]byte, pageSize)
	if err := p.src.ReadPage(6, buf); err != nil {
		t.Fatal(err)
	}
	p.installPinned(6, buf, ver)
	got, err := p.Get(6)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 {
		t.Fatalf("pinned page contents %x", got[0])
	}
}

package buffer

import (
	"strings"
	"testing"
	"time"
)

// The shard latch rule: ShardedPool never holds a shard mutex across a
// read from its source, so a slow device read stalls only the access
// that issued it. These tests hold the rule on one shard, where every
// page shares the one mutex.

// latchDeadline bounds an access that must not wait for a parked read;
// one that does waits until the test releases the read.
const latchDeadline = 3 * time.Second

// parkSource is concSource with one page whose read parks: it reports
// the read on entered and returns only once release is closed.
type parkSource struct {
	*concSource
	park    int
	entered chan struct{}
	release chan struct{}
}

func newParkSource(numPages, park int) *parkSource {
	return &parkSource{
		concSource: &concSource{pageSize: 32, numPages: numPages},
		park:       park,
		entered:    make(chan struct{}, 1),
		release:    make(chan struct{}),
	}
}

func (s *parkSource) ReadPage(page int, dst []byte) error {
	if page == s.park {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.concSource.ReadPage(page, dst)
}

// returnsInTime runs access and reports whether it returned before the
// deadline; its error, if any, fails the test.
func returnsInTime(t *testing.T, access func() error) bool {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- access() }()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
		return true
	case <-time.After(latchDeadline):
		return false
	}
}

// TestShardedHitNotBlockedByParkedRead: while one goroutine's miss (a
// View's or a Pin's) is parked in the source read, a View hit on a
// resident page of the same shard returns, and so does a Get hit.
func TestShardedHitNotBlockedByParkedRead(t *testing.T) {
	for _, c := range []struct {
		name string
		miss func(p *ShardedPool, page int) error
	}{
		{"view", func(p *ShardedPool, page int) error {
			_, err := p.View(page, func([]byte, bool) {})
			return err
		}},
		{"pin", func(p *ShardedPool, page int) error { return p.Pin(page) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			src := newParkSource(20, 7)
			p := NewShardedPool(src, 4, 20, 1)
			if _, err := p.Get(1); err != nil {
				t.Fatal(err)
			}
			missDone := make(chan error, 1)
			go func() { missDone <- c.miss(p, 7) }()
			defer func() {
				close(src.release)
				if err := <-missDone; err != nil {
					t.Errorf("the parked miss: %v", err)
				}
			}()
			<-src.entered

			var hit bool
			if !returnsInTime(t, func() error {
				var err error
				_, err = p.View(1, func(frame []byte, h bool) { hit = h && checkFill(frame, 1) == nil })
				return err
			}) {
				t.Fatalf("a View hit waited %v for a parked read of another page of its shard", latchDeadline)
			}
			if !hit {
				t.Error("the View of a resident page was not served as an intact hit")
			}
			if !returnsInTime(t, func() error { _, err := p.Get(1); return err }) {
				t.Fatalf("a Get hit waited %v for a parked read of another page of its shard", latchDeadline)
			}
		})
	}
}

// TestShardedPinErrorsReleaseShard drives ShardedPool.Pin down every
// failure it can reach — a page outside the page space, a failed source
// read, a pin with every slot already pinned — and checks that each
// leaves the shard unlocked: a View on it returns. Pin's early return
// after probe fails is not among them: locate has already range-checked
// the page, and probe's pin of a resident page fails only when every
// slot is pinned, which a resident unpinned page rules out. The last
// case shows that: with all other slots pinned, pinning the one
// resident unpinned page succeeds, under every policy.
func TestShardedPinErrorsReleaseShard(t *testing.T) {
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			factory, err := FactoryFor(name)
			if err != nil {
				t.Fatal(err)
			}
			src := &concSource{pageSize: 32, numPages: 20, failOn: map[int]bool{9: true}}
			p := NewShardedPoolWith(src, 3, 20, 1, factory)
			view := func() error {
				_, err := p.View(3, func([]byte, bool) {})
				return err
			}
			for _, c := range []struct {
				name string
				page int
				want string
			}{
				{"out of range", 20, "outside [0,20)"},
				{"failed read", 9, "injected read failure"},
			} {
				if err := p.Pin(c.page); err == nil || !strings.Contains(err.Error(), c.want) {
					t.Errorf("%s: Pin(%d) = %v, want an error containing %q", c.name, c.page, err, c.want)
				}
				if !returnsInTime(t, view) {
					t.Fatalf("%s: a View after the failed Pin waited %v", c.name, latchDeadline)
				}
			}

			for _, page := range []int{0, 1} {
				if err := p.Pin(page); err != nil {
					t.Fatal(err)
				}
			}
			// Page 3 is resident and unpinned (the Views above read it):
			// the probe of its pin has a free slot to pin it in.
			if err := p.Pin(3); err != nil {
				t.Errorf("Pin of the resident unpinned page with every other slot pinned: %v", err)
			}
			if err := p.Pin(4); err == nil || !strings.Contains(err.Error(), "slots pinned") {
				t.Errorf("Pin(4) with every slot pinned = %v, want an all-slots-pinned error", err)
			}
			if !returnsInTime(t, view) {
				t.Fatalf("a View after a Pin with every slot pinned waited %v", latchDeadline)
			}
		})
	}
}

package buffer

import "testing"

// TestViewAttribution checks the per-access attribution both pool
// implementations report: hits flag Hit, misses don't, and — on Pool, the
// one that takes writes — a miss that must evict a dirty victim counts
// its write-back. The callback runs exactly once per successful access,
// on the page asked for, and not at all on a failed one.
func TestViewAttribution(t *testing.T) {
	const pageSize = 32
	const numPages = 8
	const failPage = 6 // the source refuses to read it
	mk := map[string]func() PagePool{
		"pool": func() PagePool {
			return NewPool(&fakeSource{pageSize: pageSize, numPages: numPages, failOn: map[int]bool{failPage: true}}, 2, numPages)
		},
		"sharded": func() PagePool {
			return NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages, failOn: map[int]bool{failPage: true}}, 2, numPages, 1)
		},
	}
	for name, mkPool := range mk {
		t.Run(name, func(t *testing.T) {
			p := mkPool()
			// view is View with the callback checked: calls counts its runs,
			// first is the frame's first byte (the page number, for pages
			// the source filled), and the hit the callback is told must be
			// the one View reports.
			var calls int
			var first byte
			view := func(page int) (AccessInfo, error) {
				calls = 0
				var told bool
				info, err := p.View(page, func(frame []byte, hit bool) {
					calls++
					first, told = frame[0], hit
					if len(frame) != pageSize {
						t.Errorf("page %d: frame of %d bytes, want %d", page, len(frame), pageSize)
					}
				})
				if calls > 0 && told != info.Hit {
					t.Errorf("page %d: callback told hit=%v, View reports %+v", page, told, info)
				}
				return info, err
			}

			if info, err := view(0); err != nil || info.Hit || info.WriteBacks != 0 || calls != 1 || first != 0 {
				t.Errorf("cold miss: info=%+v err=%v calls=%d, want miss with no write-backs", info, err, calls)
			}
			if info, err := view(0); err != nil || !info.Hit || info.WriteBacks != 0 || calls != 1 || first != 0 {
				t.Errorf("hit: info=%+v err=%v calls=%d, want clean hit", info, err, calls)
			}
			// A failed source read is a miss the callback never sees, and
			// it leaves nothing resident (the pool has a free frame here, so
			// no victim is involved).
			if info, err := view(failPage); err == nil || info.Hit || calls != 0 {
				t.Errorf("failed read: info=%+v err=%v calls=%d, want an error, a miss and no callback", info, err, calls)
			}
			if p.FailedReads() != 1 || p.Resident() != 1 {
				t.Errorf("failed read: FailedReads=%d Resident=%d, want 1 and 1", p.FailedReads(), p.Resident())
			}

			// Fill the 2-page pool, then force an eviction. With page 0
			// dirty (Pool only) the faulting access must report the
			// write-back of the victim; with every page clean there is none.
			wantWriteBacks := 0
			sink := newFakeSink(pageSize)
			if w, ok := p.(*Pool); ok {
				wantWriteBacks = 1
				w.SetSink(sink)
				if err := w.Put(0, pattern(pageSize, 0xD0)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := view(1); err != nil {
				t.Fatal(err)
			}
			info, err := view(2)
			if err != nil {
				t.Fatal(err)
			}
			if info.Hit || info.WriteBacks != wantWriteBacks || calls != 1 || first != 2 {
				t.Errorf("evicting miss: info=%+v calls=%d first=%d, want miss with %d write-backs", info, calls, first, wantWriteBacks)
			}
			if len(sink.order) != wantWriteBacks || (wantWriteBacks == 1 && sink.order[0] != 0) {
				t.Errorf("sink received %v, want the dirty victim page 0 and nothing else", sink.order)
			}

			// Out-of-range access reports the error with empty attribution.
			if info, err := view(numPages + 5); err == nil || info.Hit || info.WriteBacks != 0 || calls != 0 {
				t.Errorf("out of range: info=%+v err=%v calls=%d", info, err, calls)
			}

			// Get must agree with View's data path.
			data, err := p.Get(1)
			if err != nil {
				t.Fatal(err)
			}
			if data[0] != 1 {
				t.Errorf("Get content = %d, want 1", data[0])
			}
		})
	}
}

package buffer

import "testing"

// TestGetTrackedAttribution checks the per-access attribution both pool
// implementations report: hits flag Hit, misses don't, and a miss that
// must evict a dirty victim counts its write-back.
func TestGetTrackedAttribution(t *testing.T) {
	const pageSize = 32
	const numPages = 8
	mk := map[string]func() PagePool{
		"pool": func() PagePool {
			return NewPool(&fakeSource{pageSize: pageSize, numPages: numPages}, 2, numPages)
		},
		"sharded": func() PagePool {
			return NewShardedPool(&concSource{pageSize: pageSize, numPages: numPages}, 2, numPages, 1)
		},
	}
	for name, mkPool := range mk {
		t.Run(name, func(t *testing.T) {
			p := mkPool()
			sink := newFakeSink(pageSize)
			p.SetSink(sink)

			if _, info, err := p.GetTracked(0); err != nil || info.Hit || info.WriteBacks != 0 {
				t.Errorf("cold miss: info=%+v err=%v, want miss with no write-backs", info, err)
			}
			if _, info, err := p.GetTracked(0); err != nil || !info.Hit || info.WriteBacks != 0 {
				t.Errorf("hit: info=%+v err=%v, want clean hit", info, err)
			}
			// Dirty page 0, fill the 2-page pool, then force an eviction of
			// the dirty victim: the faulting access must report the write-back.
			if err := p.Put(0, pattern(pageSize, 0xD0)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.GetTracked(1); err != nil {
				t.Fatal(err)
			}
			_, info, err := p.GetTracked(2)
			if err != nil {
				t.Fatal(err)
			}
			if info.Hit || info.WriteBacks != 1 {
				t.Errorf("evicting miss: info=%+v, want miss with one write-back", info)
			}
			if len(sink.order) != 1 || sink.order[0] != 0 {
				t.Errorf("sink received %v, want the dirty victim page 0", sink.order)
			}

			// Out-of-range access reports the error with empty attribution.
			if _, info, err := p.GetTracked(numPages + 5); err == nil || info.Hit || info.WriteBacks != 0 {
				t.Errorf("out of range: info=%+v err=%v", info, err)
			}

			// Get must agree with GetTracked's data path.
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

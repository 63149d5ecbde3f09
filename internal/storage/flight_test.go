package storage

import (
	"fmt"
	"strings"
	"testing"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
)

// TestFlightRecorderAttributesSearch checks the storage wiring: with a
// recorder attached, every query becomes one record whose totals agree
// with the pool's hit/miss accounting and whose per-level attribution
// starts at the root (level 0, exactly one access per window query).
func TestFlightRecorderAttributesSearch(t *testing.T) {
	_, pt := pagedFixture(t, 1200, 16, 10)
	fr := obs.NewFlightRecorder(64, 8)
	pt.SetFlightRecorder(fr)

	pt.Pool().ResetStats()
	const queries = 20
	for i := 0; i < queries; i++ {
		q := geom.RectAround(geom.Point{X: float64(i) / queries, Y: 0.5}, 0.05, 0.05)
		if _, err := pt.SearchWindow(q); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _ := pt.Pool().Stats()

	snap := fr.Snapshot()
	if snap.Queries != queries {
		t.Fatalf("recorded %d queries, want %d", snap.Queries, queries)
	}
	var recAccesses, recMisses int
	for _, r := range snap.Recent {
		if r.Name != "window" {
			t.Errorf("query %d named %q, want window", r.ID, r.Name)
		}
		recAccesses += r.Accesses
		recMisses += r.Misses
		if len(r.Levels) == 0 || r.Levels[0].Accesses != 1 {
			t.Errorf("query %d root-level accesses = %+v, want exactly 1", r.ID, r.Levels)
		}
	}
	if uint64(recAccesses) != hits+misses || uint64(recMisses) != misses {
		t.Errorf("recorder totals accesses=%d misses=%d, pool says %d and %d",
			recAccesses, recMisses, hits+misses, misses)
	}

	// Nearest queries are recorded under their own name.
	if _, err := pt.Nearest(geom.Point{X: 0.5, Y: 0.5}, 3); err != nil {
		t.Fatal(err)
	}
	snap = fr.Snapshot()
	last := snap.Recent[len(snap.Recent)-1]
	if last.Name != "nearest" || last.Results != 3 || last.Accesses == 0 {
		t.Errorf("nearest record = %+v", last)
	}
}

// TestFlightRecorderIdenticalResults: attaching a recorder must not
// change what a query returns.
func TestFlightRecorderIdenticalResults(t *testing.T) {
	tr, pt := pagedFixture(t, 800, 16, 10)
	pt.SetFlightRecorder(obs.NewFlightRecorder(16, 4))
	q := geom.RectAround(geom.Point{X: 0.4, Y: 0.6}, 0.1, 0.1)
	got, err := pt.SearchWindow(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, tr.SearchWindow(q)) {
		t.Fatal("recorded search returned different results")
	}
	pt.SetFlightRecorder(nil) // detaching works too
	got, err = pt.SearchWindow(q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(got, tr.SearchWindow(q)) {
		t.Fatal("detached search returned different results")
	}
}

// TestStagedReadAttribution drives the update path's staged read
// (updater.node, one operation per access) through both pools and every
// outcome, and checks that it costs the pool exactly what View costs for
// the same access on an identically prepared twin, including when the
// read or the validation at fault fails — a corrupt page is a failed read
// every time it is asked for, never a resident, and a failed read stages
// nothing; then it checks a failing query's and a degraded query's flight
// record against the pool counters.
func TestStagedReadAttribution(t *testing.T) {
	const badPage, corruptPage = 2, 3
	for _, shards := range []int{1, 2} { // Pool, ShardedPool
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mem, err := NewMemoryManager(DefaultPageSize)
			if err != nil {
				t.Fatal(err)
			}
			if err := SaveTree(mem, buildTestTree(t, 200, 16)); err != nil {
				t.Fatal(err)
			}
			fm := NewFaultManager(mem, 7).BadPage(badPage)
			if err := fm.CorruptStoredPage(corruptPage); err != nil {
				t.Fatal(err)
			}
			open := func() *PagedTree {
				pt, err := OpenPagedTreeWith(fm, 8, "", shards)
				if err != nil {
					t.Fatal(err)
				}
				return pt
			}
			pt, twin := open(), open()
			u := newUpdater(pt)
			for _, tc := range []struct {
				name        string
				page        int
				hit         bool
				wantErr     bool
				failedReads uint64 // cumulative, after this access
				resident    int    // after this access
			}{
				{"miss", 0, false, false, 0, 1},
				{"hit", 0, true, false, 0, 1},
				{"failed read", badPage, false, true, 1, 1},
				{"failed read leaves nothing resident", badPage, false, true, 2, 1},
				{"corrupt page refused at fault", corruptPage, false, true, 3, 1},
				{"corrupt page never resident", corruptPage, false, true, 4, 1},
			} {
				info, _ := twin.pool.View(tc.page, func([]byte, bool) {})
				u.reset()
				n, err := u.node(tc.page, 0) // no metrics attached: the depth is not counted
				gh, gm, ge := pt.Pool().Stats()
				wh, wm, we := twin.Pool().Stats()
				if gh != wh || gm != wm || ge != we || info.Hit != tc.hit {
					t.Errorf("%s: staged read left hits/misses/evictions %d/%d/%d, View %d/%d/%d (hit=%v), want hit=%v",
						tc.name, gh, gm, ge, wh, wm, we, info.Hit, tc.hit)
				}
				if (err != nil) != tc.wantErr {
					t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
				}
				if err == nil && (n.Page != tc.page || len(n.Rects) == 0) {
					t.Errorf("%s: staged page %d with %d entries, want page %d", tc.name, n.Page, len(n.Rects), tc.page)
				}
				if _, staged := u.nodes[tc.page]; staged == tc.wantErr {
					t.Errorf("%s: page staged = %v after err = %v", tc.name, staged, err)
				}
				if fr, res := pt.Pool().FailedReads(), pt.Pool().Resident(); fr != tc.failedReads || res != tc.resident {
					t.Errorf("%s: FailedReads=%d Resident=%d, want %d and %d", tc.name, fr, res, tc.failedReads, tc.resident)
				}
				if tc.page == corruptPage && (err == nil || !strings.Contains(err.Error(), fmt.Sprintf("page %d", corruptPage)) ||
					!strings.Contains(err.Error(), "checksum mismatch")) {
					t.Errorf("%s: err = %v, want it to name page %d and a checksum mismatch", tc.name, err, corruptPage)
				}
			}

			// End to end: a query that dies on the unreadable leaf still hands
			// the recorder every access it made, the failing one included.
			fr := obs.NewFlightRecorder(4, 4)
			pt.SetFlightRecorder(fr)
			pt.Pool().ResetStats()
			if _, err := pt.SearchWindow(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}); err == nil {
				t.Fatal("full-window search over a bad page succeeded")
			}
			hits, misses, _ := pt.Pool().Stats()
			rec := fr.Snapshot().Recent[0]
			if uint64(rec.Accesses) != hits+misses || uint64(rec.Misses) != misses {
				t.Errorf("recorder saw accesses=%d misses=%d, pool counted %d and %d",
					rec.Accesses, rec.Misses, hits+misses, misses)
			}

			// The degraded search is the same search: it skips the two
			// damaged leaves the strict one died on, and its record too
			// accounts for every access, the failed ones included.
			pt.Pool().ResetStats()
			got, rep := pt.SearchWindowDegraded(geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1})
			if len(rep.Faults) != 2 || len(got) == 0 || len(got) >= 200 {
				t.Fatalf("degraded search: %d faults, %d of 200 items", len(rep.Faults), len(got))
			}
			hits, misses, _ = pt.Pool().Stats()
			recent := fr.Snapshot().Recent
			rec = recent[len(recent)-1]
			if rec.Name != "window" || rec.Results != len(got) ||
				uint64(rec.Accesses) != hits+misses || uint64(rec.Misses) != misses {
				t.Errorf("degraded record %+v, pool counted %d accesses and %d misses, query returned %d items",
					rec, hits+misses, misses, len(got))
			}
		})
	}
}

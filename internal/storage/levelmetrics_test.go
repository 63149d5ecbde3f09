package storage

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"rtreebuf/internal/buffer"
	"rtreebuf/internal/geom"
	"rtreebuf/internal/obs"
	"rtreebuf/internal/rtree"
)

// levelSeries reads the per-level buffer series out of reg, indexed by
// level. Their length is the number of levels registered so far.
func levelSeries(t *testing.T, reg *obs.Registry) (hits, misses []uint64) {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name != "buffer_level_hits_total" && s.Name != "buffer_level_misses_total" {
			continue
		}
		lvl := -1
		for _, l := range s.Labels {
			if l.Key == "level" {
				lvl, _ = strconv.Atoi(l.Value)
			}
		}
		if lvl < 0 {
			t.Fatalf("%s has no level label", s.FullName())
		}
		for len(hits) <= lvl {
			hits, misses = append(hits, 0), append(misses, 0)
		}
		if s.Name == "buffer_level_hits_total" {
			hits[lvl] = uint64(s.Value)
		} else {
			misses[lvl] = uint64(s.Value)
		}
	}
	return hits, misses
}

func sum(xs []uint64) (n uint64) {
	for _, x := range xs {
		n += x
	}
	return n
}

// checkLevelsSumToPool holds the per-level series to the pool's own
// counters: the levels split the pool's hits and its misses exactly, and
// every level of the tree as it stands has its series registered.
func checkLevelsSumToPool(t *testing.T, when string, reg *obs.Registry, pt *PagedTree) {
	t.Helper()
	hits, misses, _ := pt.Pool().Stats()
	lh, lm := levelSeries(t, reg)
	if sum(lh) != hits || sum(lm) != misses {
		t.Fatalf("%s: per-level hits %v (Σ %d) misses %v (Σ %d), pool %d hits %d misses",
			when, lh, sum(lh), lm, sum(lm), hits, misses)
	}
	if height := len(pt.Meta().Levels); len(lh) < height {
		t.Fatalf("%s: %d levels registered for a tree of height %d", when, len(lh), height)
	}
}

// windowAround is a 10x10 query window of the updateTestParams item space.
func windowAround(rng *rand.Rand) geom.Rect {
	x, y := rng.Float64()*90, rng.Float64()*90
	return geom.Rect{MinX: x, MinY: y, MaxX: x + 10, MaxY: y + 10}
}

// TestLevelSeriesMatchFlightRecorder: the per-level buffer series count
// each read at the depth the query reached it, as the flight recorder
// does — on a file in SaveTree's level order and on one whose updates
// have broken that order, where a level cannot be read off a page
// number, over Pool and a 2-shard ShardedPool.
func TestLevelSeriesMatchFlightRecorder(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	levelOrder, _, seeded := openUpdatable(t, randomItems(rng, 300, 1), 32)
	snapshot := func(dm *MemoryManager) *MemoryManager {
		cp, err := NewMemoryManager(dm.PageSize())
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, dm.PageSize())
		for p := 0; p < dm.NumPages(); p++ {
			if err := dm.ReadPage(p, buf); err != nil {
				t.Fatal(err)
			}
			if err := cp.WritePage(p, buf); err != nil {
				t.Fatal(err)
			}
		}
		meta, err := dm.ReadMeta()
		if err != nil {
			t.Fatal(err)
		}
		if err := cp.WriteMeta(meta); err != nil {
			t.Fatal(err)
		}
		return cp
	}
	files := map[string]*MemoryManager{"level-order": snapshot(levelOrder)}
	for _, it := range randomItems(rng, 200, 1000) {
		if err := seeded.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	files["updated"] = levelOrder // the WAL tree's page file, now out of level order

	for name, dm := range files {
		for _, shards := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				pt, err := OpenPagedTreeWith(dm, 8, "", shards)
				if err != nil {
					t.Fatal(err)
				}
				if want := name == "level-order"; pt.Meta().LevelOrder != want {
					t.Fatalf("LevelOrder = %v, want %v", pt.Meta().LevelOrder, want)
				}
				const windows, nearest = 200, 20
				reg := obs.NewRegistry()
				fr := obs.NewFlightRecorder(windows+nearest, 1)
				pt.SetMetrics(buffer.NewMetrics(reg, "lru"))
				pt.SetFlightRecorder(fr)
				qrng := rand.New(rand.NewSource(int64(shards)))
				for i := 0; i < windows; i++ {
					if _, err := pt.SearchWindow(windowAround(qrng)); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < nearest; i++ {
					p := geom.Point{X: qrng.Float64() * 100, Y: qrng.Float64() * 100}
					if _, err := pt.Nearest(p, 5); err != nil {
						t.Fatal(err)
					}
				}

				snap := fr.Snapshot()
				if snap.Queries != windows+nearest || len(snap.Recent) != windows+nearest {
					t.Fatalf("recorder kept %d of %d queries", len(snap.Recent), snap.Queries)
				}
				height := len(pt.Meta().Levels)
				wantHits, wantMisses := make([]uint64, height), make([]uint64, height)
				for _, r := range snap.Recent {
					for _, ls := range r.Levels {
						wantHits[ls.Level] += uint64(ls.Accesses - ls.Misses)
						wantMisses[ls.Level] += uint64(ls.Misses)
					}
				}
				gotHits, gotMisses := levelSeries(t, reg)
				if fmt.Sprint(gotHits, gotMisses) != fmt.Sprint(wantHits, wantMisses) {
					t.Errorf("per-level hits %v misses %v, flight recorder %v and %v",
						gotHits, gotMisses, wantHits, wantMisses)
				}
				checkLevelsSumToPool(t, "after queries", reg, pt)
			})
		}
	}

	// A read that fails is counted too, once, on each path that reads
	// through PagedTree.read: a window query, a kNN query and a WAL
	// insert's staged read. The root is unreadable, so each fails on its
	// first read, and only the two queries keep a flight record.
	t.Run("failed-reads", func(t *testing.T) {
		fm := NewFaultManager(snapshot(files["level-order"]), 9).BadPage(0)
		walDev, err := NewMemoryManager(fm.PageSize() + WALFrameOverhead)
		if err != nil {
			t.Fatal(err)
		}
		pt, _, err := OpenPagedTreeWAL(fm, walDev, 8)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		fr := obs.NewFlightRecorder(4, 1)
		pt.SetMetrics(buffer.NewMetrics(reg, "lru"))
		pt.SetFlightRecorder(fr)
		for i, op := range []struct {
			name string
			run  func() error
		}{
			{"window", func() error { _, err := pt.SearchWindow(windowAround(rng)); return err }},
			{"nearest", func() error { _, err := pt.Nearest(geom.Point{X: 50, Y: 50}, 5); return err }},
			{"insert", func() error { return pt.Insert(randomItems(rng, 1, 5000)[0]) }},
		} {
			if err := op.run(); err == nil {
				t.Fatalf("%s over an unreadable root succeeded", op.name)
			}
			hits, misses := levelSeries(t, reg)
			if sum(hits) != 0 || len(misses) == 0 || misses[0] != uint64(i+1) || sum(misses) != uint64(i+1) {
				t.Errorf("after the failed %s: per-level hits %v misses %v, want %d level-0 misses only",
					op.name, hits, misses, i+1)
			}
			checkLevelsSumToPool(t, "after the failed "+op.name, reg, pt)
		}
		if fr := pt.Pool().FailedReads(); fr != 3 {
			t.Errorf("pool counted %d failed reads, want 3", fr)
		}
		snap := fr.Snapshot()
		if len(snap.Recent) != 2 {
			t.Fatalf("flight recorder kept %d queries, want the window and the kNN query", len(snap.Recent))
		}
		for _, r := range snap.Recent {
			if r.Accesses != 1 || r.Misses != 1 {
				t.Errorf("%s record: %d accesses, %d misses; want the one failed read", r.Name, r.Accesses, r.Misses)
			}
		}
	})
}

// TestLevelSeriesSumToPoolTotals follows a WAL-backed tree through pins,
// inserts that split the root, queries, a scan, and deletes that condense
// and shrink it: after every step the per-level series split the pool's
// hits and misses exactly, and each change of height registers the
// levels the tree now has.
func TestLevelSeriesSumToPoolTotals(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	items := randomItems(rng, 40, 1)
	_, _, pt := openUpdatable(t, items, 16)
	reg := obs.NewRegistry()
	pt.SetMetrics(buffer.NewMetrics(reg, "lru"))

	if err := pt.PinLevels(1); err != nil {
		t.Fatal(err)
	}
	checkLevelsSumToPool(t, "level-order PinLevels", reg, pt)

	height := len(pt.Meta().Levels)
	grown := false
	for _, it := range randomItems(rng, 400, 100) {
		if err := pt.Insert(it); err != nil {
			t.Fatal(err)
		}
		items = append(items, it)
		checkLevelsSumToPool(t, fmt.Sprintf("insert %d", it.ID), reg, pt)
		if h := len(pt.Meta().Levels); h > height {
			height, grown = h, true
		}
	}
	if !grown {
		t.Fatal("no insert split the root; the test covers no height change")
	}

	if err := pt.PinLevels(2); err != nil {
		t.Fatal(err)
	}
	checkLevelsSumToPool(t, "walked PinLevels", reg, pt)
	for i := 0; i < 50; i++ {
		if _, err := pt.SearchWindow(windowAround(rng)); err != nil {
			t.Fatal(err)
		}
		if _, err := pt.Nearest(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}, 3); err != nil {
			t.Fatal(err)
		}
	}
	checkLevelsSumToPool(t, "queries", reg, pt)
	if err := pt.ScanLeaves(func(rtree.Item) error { return nil }); err != nil {
		t.Fatal(err)
	}
	checkLevelsSumToPool(t, "scan", reg, pt)

	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	shrunk := false
	for _, it := range items[:len(items)-5] {
		found, err := pt.Delete(it)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", it.ID, found, err)
		}
		checkLevelsSumToPool(t, fmt.Sprintf("delete %d", it.ID), reg, pt)
		if h := len(pt.Meta().Levels); h < height {
			height, shrunk = h, true
		}
	}
	if !shrunk {
		t.Fatal("no delete shrank the root; the test covers no height change")
	}
	if found, err := pt.Delete(items[0]); err != nil || found {
		t.Fatalf("deleting a deleted item: found=%v err=%v", found, err)
	}
	checkLevelsSumToPool(t, "missed delete", reg, pt)
}

// TestLevelSeriesConcurrentQueries: readers sharing a sharded pool count
// into the per-level series concurrently, and once they stop the levels
// split the pool's totals exactly. Run under -race in CI.
func TestLevelSeriesConcurrentQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	dm, _, _ := openUpdatable(t, randomItems(rng, 600, 1), 16)
	pt, err := OpenPagedTreeWith(dm, 24, "", 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	pt.SetMetrics(buffer.NewMetrics(reg, "lru"))

	const readers, queries = 4, 200
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for i := 0; i < queries; i++ {
				if _, err := pt.SearchWindow(windowAround(qrng)); err != nil {
					errs <- err
					return
				}
				if _, err := pt.Nearest(geom.Point{X: qrng.Float64() * 100, Y: qrng.Float64() * 100}, 3); err != nil {
					errs <- err
					return
				}
			}
		}(int64(r))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	checkLevelsSumToPool(t, "concurrent queries", reg, pt)
}

// TestStagedReadCountsStoredLevel: a page an update first reads after the
// operation has split the root is counted at the level it holds in the
// stored tree the read comes from, one above its depth on the staged
// path. A delete gets there when reinserting one orphan splits the root
// and the next orphan descends into a node the operation has not read.
func TestStagedReadCountsStoredLevel(t *testing.T) {
	_, _, pt := openUpdatable(t, randomItems(rand.New(rand.NewSource(5)), 100, 1), 16)
	height := len(pt.Meta().Levels)
	if height < 3 {
		t.Fatalf("tree of height %d: the staged path needs depth 2", height)
	}
	reg := obs.NewRegistry()
	pt.SetMetrics(buffer.NewMetrics(reg, "lru"))
	u, err := pt.beginUpdate()
	if err != nil {
		t.Fatal(err)
	}
	root, err := u.node(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	child := root.child(0)
	u.splitRoot(root) // the stored root's children now sit at staged depth 2
	if _, err := u.node(child, 2); err != nil {
		t.Fatal(err)
	}
	hits, misses := levelSeries(t, reg)
	want := make([]uint64, height)
	want[0], want[1] = 1, 1
	if fmt.Sprint(misses) != fmt.Sprint(want) || sum(hits) != 0 {
		t.Errorf("per-level hits %v misses %v, want no hits and misses %v", hits, misses, want)
	}
}

package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"testing"
	"time"

	"rtreebuf/internal/geom"
	"rtreebuf/internal/rtree"
)

// savedMemoryTree builds a tree, saves it to a fresh in-memory manager,
// and returns both — the starting point of most fault scenarios.
func savedMemoryTree(t *testing.T, n, capacity int) (*MemoryManager, *rtree.Tree) {
	t.Helper()
	tr := buildTestTree(t, n, capacity)
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	return dm, tr
}

func TestFaultManagerTransientReads(t *testing.T) {
	dm, _ := savedMemoryTree(t, 300, 16)
	fm := NewFaultManager(dm, 1).FailEveryNthRead(3)
	buf := make([]byte, dm.PageSize())
	var faults, oks int
	for i := 0; i < 12; i++ {
		err := fm.ReadPage(0, buf)
		if err != nil {
			if !Transient(err) {
				t.Fatalf("injected read fault not classified transient: %v", err)
			}
			faults++
			// The retry is a fresh access and must succeed (it is not a
			// multiple of 3).
			if err := fm.ReadPage(0, buf); err != nil {
				t.Fatalf("retry after transient fault failed: %v", err)
			}
			oks++
		} else {
			oks++
		}
	}
	if faults == 0 {
		t.Fatal("every-3rd-read plan never fired")
	}
	if st := fm.FaultStats(); st.TransientReads != uint64(faults) {
		t.Errorf("FaultStats.TransientReads = %d, want %d", st.TransientReads, faults)
	}
	if oks == 0 {
		t.Fatal("no successful reads at all")
	}
}

func TestFaultManagerProbabilisticReadsDeterministic(t *testing.T) {
	run := func() []bool {
		dm, _ := savedMemoryTree(t, 200, 16)
		fm := NewFaultManager(dm, 42).FailReadsWithProb(0.3)
		buf := make([]byte, dm.PageSize())
		var outcomes []bool
		for i := 0; i < 50; i++ {
			outcomes = append(outcomes, fm.ReadPage(0, buf) == nil)
		}
		return outcomes
	}
	a, b := run(), run()
	var faults int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probabilistic plan not deterministic at read %d", i)
		}
		if !a[i] {
			faults++
		}
	}
	if faults == 0 {
		t.Error("p=0.3 plan injected nothing in 50 reads")
	}
}

func TestFaultManagerBadPage(t *testing.T) {
	dm, _ := savedMemoryTree(t, 300, 16)
	fm := NewFaultManager(dm, 1).BadPage(2)
	buf := make([]byte, dm.PageSize())
	for i := 0; i < 3; i++ {
		err := fm.ReadPage(2, buf)
		if err == nil {
			t.Fatal("bad page read succeeded")
		}
		if Transient(err) {
			t.Fatal("permanent fault classified transient")
		}
	}
	if err := fm.ReadPage(0, buf); err != nil {
		t.Fatalf("healthy page affected by bad-page plan: %v", err)
	}
}

func TestFaultManagerCorruptStoredPage(t *testing.T) {
	dm, _ := savedMemoryTree(t, 300, 16)
	fm := NewFaultManager(dm, 7)
	buf := make([]byte, dm.PageSize())
	if err := dm.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if err := VerifyPage(buf); err != nil {
		t.Fatalf("page corrupt before injection: %v", err)
	}
	if err := fm.CorruptStoredPage(3); err != nil {
		t.Fatal(err)
	}
	if err := dm.ReadPage(3, buf); err != nil {
		t.Fatal(err)
	}
	if VerifyPage(buf) == nil {
		t.Fatal("bit flip not caught by the page checksum")
	}
	if _, err := DecodeNode(buf, 3); err == nil {
		t.Fatal("bit-flipped page decoded")
	}
}

func TestFaultManagerTornWrite(t *testing.T) {
	dm, err := NewMemoryManager(256)
	if err != nil {
		t.Fatal(err)
	}
	fm := NewFaultManager(dm, 1).TornWrite(2, 100)
	page := make([]byte, 256)
	for i := range page {
		page[i] = 0xAA
	}
	if err := fm.WritePage(0, page); err != nil { // write 1: intact
		t.Fatal(err)
	}
	if err := fm.WritePage(1, page); err != nil { // write 2: torn, acked
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := dm.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		want := byte(0)
		if i < 100 {
			want = 0xAA
		}
		if got[i] != want {
			t.Fatalf("torn page byte %d = %#x, want %#x", i, got[i], want)
		}
	}
	if st := fm.FaultStats(); st.TornWrites != 1 {
		t.Errorf("TornWrites = %d", st.TornWrites)
	}

	// A plan aimed at a WriteMeta tears nothing, and the crash matrix
	// relies on that: the catalog is written whole and a crash on the
	// next write keeps it.
	fm.TornWrite(3, 3).CrashAfterWrites(3)
	if err := fm.WriteMeta([]byte("catalog")); err != nil {
		t.Fatal(err)
	}
	if err := fm.WritePage(2, page); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write past the crash point = %v", err)
	}
	if meta, err := dm.ReadMeta(); err != nil || string(meta) != "catalog" || fm.FaultStats().TornWrites != 1 {
		t.Fatalf("catalog after the crash = %q, %v; tears %d, want it whole", meta, err, fm.FaultStats().TornWrites)
	}
}

// TestFaultManagerCrashIsFailStop: a crash point fails the write that
// reaches it, and after it, as after a Crash, every operation fails
// with ErrCrashed, Crash and Close included. Close still releases the
// inner manager.
func TestFaultManagerCrashIsFailStop(t *testing.T) {
	page := make([]byte, 256)
	for _, explicit := range []bool{false, true} {
		dm, err := NewMemoryManager(256)
		if err != nil {
			t.Fatal(err)
		}
		fm := NewFaultManager(dm, 1)
		if !explicit {
			fm.CrashAfterWrites(2)
		}
		if err := errors.Join(fm.WritePage(0, page), fm.WritePage(1, page)); err != nil {
			t.Fatal(err)
		}
		if explicit {
			if err := fm.Crash(func(int) bool { return true }); err != nil {
				t.Fatal(err)
			}
		} else if err := fm.WritePage(2, page); !errors.Is(err, ErrCrashed) {
			t.Fatalf("third write past crash point = %v", err)
		}
		if !fm.Crashed() {
			t.Fatal("manager not in crashed state")
		}
		// The write that hit the crash point was not performed.
		if dm.NumPages() != 2 {
			t.Errorf("crashed write reached the medium: %d pages", dm.NumPages())
		}
		for _, op := range []struct {
			name string
			run  func() error
		}{
			{"ReadPage", func() error { return fm.ReadPage(0, page) }},
			{"WritePage", func() error { return fm.WritePage(0, page) }},
			{"WriteMeta", func() error { return fm.WriteMeta([]byte("x")) }},
			{"ReadMeta", func() error { _, err := fm.ReadMeta(); return err }},
			{"Sync", fm.Sync},
			{"Crash", func() error { return fm.Crash(func(int) bool { return true }) }},
			{"Close", fm.Close},
		} {
			if err := op.run(); !errors.Is(err, ErrCrashed) {
				t.Errorf("explicit crash %v: %s after the crash = %v", explicit, op.name, err)
			}
		}
	}
}

// TestFaultCrashKeepsSyncedAndChosenWrites pins the crash rule: a write
// is pending from its issue until the next sync, a rewrite of the same
// page replaces it, and a crash leaves the synced medium plus exactly
// the pending writes its caller keeps. WriteMeta is FileManager's
// barrier: with a page write pending it makes every earlier write
// durable, and the catalog itself stays pending; with none it syncs
// nothing, and a second catalog replaces the pending first.
func TestFaultCrashKeepsSyncedAndChosenWrites(t *testing.T) {
	const durable = -1 // made durable by the barrier of a later WriteMeta
	writes := []struct {
		pending int // the Crash index of what it writes, or durable
		write   func(DiskManager) error
	}{
		{durable, func(dm DiskManager) error { return dm.WritePage(1, fillPage(0xA1)) }},
		{0, func(dm DiskManager) error { return dm.WriteMeta([]byte("catalog-v2")) }},
		{0, func(dm DiskManager) error { return dm.WriteMeta([]byte("catalog-v3")) }},
		{1, func(dm DiskManager) error { return dm.WritePage(3, fillPage(0xB3)) }},
		{2, func(dm DiskManager) error { return dm.WritePage(1, fillPage(0xA2)) }},
	}
	for mask := 0; mask < 8; mask++ {
		kept := func(i int) bool { return mask&(1<<i) != 0 }
		dm, want := seedDurable(t), seedDurable(t)
		f := NewFaultManager(dm, 1)
		for _, m := range []DiskManager{f, want} { // synced: no crash drops it
			if err := m.WritePage(0, fillPage(0xC0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		for _, w := range writes {
			if err := w.write(f); err != nil {
				t.Fatal(err)
			}
			if w.pending == durable || kept(w.pending) {
				if err := w.write(want); err != nil {
					t.Fatal(err)
				}
			}
		}
		if f.Pending() != 3 {
			t.Fatalf("Pending() = %d, want 3", f.Pending())
		}
		if err := f.Crash(kept); err != nil {
			t.Fatal(err)
		}
		if got, want := mediumState(t, dm), mediumState(t, want); got != want {
			t.Errorf("keep %03b: medium %s, want %s", mask, got, want)
		}
	}
}

const faultPageSize = 512

// seedDurable builds a synced medium: four pages of known content and a
// v1 catalog.
func seedDurable(t *testing.T) *MemoryManager {
	t.Helper()
	m, err := NewMemoryManager(faultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		if err := m.WritePage(p, fillPage(byte(p+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteMeta([]byte("catalog-v1")); err != nil {
		t.Fatal(err)
	}
	return m
}

// fillPage returns a page of b bytes.
func fillPage(b byte) []byte { return bytes.Repeat([]byte{b}, faultPageSize) }

// mediumState renders a manager's full content for exact comparison.
func mediumState(t *testing.T, m *MemoryManager) string {
	t.Helper()
	meta, err := m.ReadMeta()
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "meta=%q", meta)
	buf := make([]byte, m.PageSize())
	for p := 0; p < m.NumPages(); p++ {
		if err := m.ReadPage(p, buf); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&sb, " page%d=%x", p, buf[:4])
	}
	return sb.String()
}

// TestFaultCloseWithoutCrashKeepsPendingWrites: closing is not a crash,
// so a reopened file holds every write, synced or not.
func TestFaultCloseWithoutCrashKeepsPendingWrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.rt")
	fm, err := CreateFile(path, MinPageSize)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFaultManager(fm, 1)
	page := bytes.Repeat([]byte{0x5A}, MinPageSize)
	if err := errors.Join(f.WritePage(2, page), f.WriteMeta([]byte("catalog")), f.Close()); err != nil {
		t.Fatal(err)
	}
	dm, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer dm.Close()
	got := make([]byte, MinPageSize)
	meta, err := dm.ReadMeta()
	if err := errors.Join(err, dm.ReadPage(2, got)); err != nil || !bytes.Equal(got, page) || string(meta) != "catalog" {
		t.Fatalf("reopened file: page 2 begins %x, catalog %q, err %v", got[:4], meta, err)
	}
}

func TestResilientRecoversTransientReads(t *testing.T) {
	dm, _ := savedMemoryTree(t, 300, 16)
	fm := NewFaultManager(dm, 1).FailEveryNthRead(7)
	var slept []time.Duration
	rm := NewResilientManager(fm, WithSleep(func(d time.Duration) { slept = append(slept, d) }))
	buf := make([]byte, dm.PageSize())
	for i := 0; i < 100; i++ {
		if err := rm.ReadPage(i%dm.NumPages(), buf); err != nil {
			t.Fatalf("read %d failed through resilient manager: %v", i, err)
		}
	}
	st := rm.RetryStats()
	if st.Recoveries == 0 || st.Retries == 0 {
		t.Fatalf("no recoveries recorded: %+v", st)
	}
	if st.Giveups != 0 {
		t.Fatalf("giveups on a transient-only plan: %+v", st)
	}
	if len(slept) == 0 {
		t.Fatal("backoff never slept")
	}
	for _, d := range slept {
		if d < time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("backoff delay %v outside [1ms,100ms]", d)
		}
	}
}

func TestResilientBackoffScheduleAndGiveup(t *testing.T) {
	dm, _ := savedMemoryTree(t, 100, 16)
	fm := NewFaultManager(dm, 1).FailEveryNthRead(1) // every read fails
	var slept []time.Duration
	rm := NewResilientManager(fm, WithSleep(func(d time.Duration) { slept = append(slept, d) }))
	buf := make([]byte, dm.PageSize())
	err := rm.ReadPage(0, buf)
	if err == nil || !Transient(err) {
		t.Fatalf("exhausted retries returned %v", err)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
	st := rm.RetryStats()
	if st.Giveups != 1 || st.Recoveries != 0 || st.Retries != 4 {
		t.Errorf("stats = %+v", st)
	}
	rm.ResetRetryStats()
	if st := rm.RetryStats(); st != (RetryStats{}) {
		t.Errorf("reset left %+v", st)
	}
}

func TestResilientDoesNotRetryPermanentErrors(t *testing.T) {
	dm, _ := savedMemoryTree(t, 100, 16)
	fm := NewFaultManager(dm, 1).BadPage(1)
	calls := 0
	rm := NewResilientManager(fm, WithSleep(func(time.Duration) { calls++ }))
	buf := make([]byte, dm.PageSize())
	if err := rm.ReadPage(1, buf); err == nil || Transient(err) {
		t.Fatalf("bad page through resilient manager = %v", err)
	}
	if calls != 0 {
		t.Errorf("permanent error slept %d times", calls)
	}
	if st := rm.RetryStats(); st.Retries != 0 || st.Giveups != 0 {
		t.Errorf("permanent error counted as retry work: %+v", st)
	}
}

// TestResilientReadPageAllocatesNothing: the retry layer sits on every
// pool fault, and a read that succeeds first time costs it one call and
// one nil check — no allocation.
func TestResilientReadPageAllocatesNothing(t *testing.T) {
	dm, _ := savedMemoryTree(t, 300, 16)
	rm := NewResilientManager(dm)
	buf := make([]byte, dm.PageSize())
	page := 0
	if got := testing.AllocsPerRun(200, func() {
		if err := rm.ReadPage(page%dm.NumPages(), buf); err != nil {
			t.Fatal(err)
		}
		page++
	}); got != 0 {
		t.Errorf("ResilientManager.ReadPage: %v allocations per read, want 0", got)
	}
}

// TestPagedTreeResilientUnderFaultPlan is the acceptance scenario: with
// every 7th read failing once, queries through the full stack
// (PagedTree -> buffer pool -> ResilientManager -> FaultManager ->
// MemoryManager) return results identical to the fault-free in-memory
// tree, with recoveries recorded and zero query errors.
func TestPagedTreeResilientUnderFaultPlan(t *testing.T) {
	tr := buildTestTree(t, 1200, 16)
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	fm := NewFaultManager(dm, 99).FailEveryNthRead(7)
	rm := NewResilientManager(fm, WithSleep(func(time.Duration) {}))
	pt, err := OpenPagedTree(rm, 20)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(701, 702))
	for i := 0; i < 150; i++ {
		q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()},
			rng.Float64()*0.2, rng.Float64()*0.2)
		got, err := pt.SearchWindow(q)
		if err != nil {
			t.Fatalf("query %d errored under transient fault plan: %v", i, err)
		}
		if !sameIDs(got, tr.SearchWindow(q)) {
			t.Fatalf("query %d result diverged under fault plan", i)
		}
	}
	st := rm.RetryStats()
	if st.Recoveries == 0 {
		t.Fatalf("fault plan never fired through the query path: %+v (fault stats %+v)",
			st, fm.FaultStats())
	}
	if st.Giveups != 0 {
		t.Errorf("giveups under a transient-only plan: %+v", st)
	}
	// kNN runs through the same read path.
	for i := 0; i < 30; i++ {
		p := geom.Point{X: rng.Float64(), Y: rng.Float64()}
		got, err := pt.Nearest(p, 5)
		if err != nil {
			t.Fatalf("kNN errored under fault plan: %v", err)
		}
		want := tr.Nearest(p, 5)
		if len(got) != len(want) {
			t.Fatalf("kNN size mismatch under fault plan")
		}
	}
}

func TestPagedTreeDegradedSearch(t *testing.T) {
	tr := buildTestTree(t, 1200, 16)
	dm, err := NewMemoryManager(DefaultPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(dm, tr); err != nil {
		t.Fatal(err)
	}
	pt0, err := OpenPagedTree(dm, 200)
	if err != nil {
		t.Fatal(err)
	}
	meta := pt0.Meta()
	// Damage one leaf page (bit flip) and make another unreadable.
	leafLo, leafHi := meta.LevelPageRange(len(meta.Levels) - 1)
	flipPage, badPage := leafLo, leafLo+1
	if badPage >= leafHi {
		t.Fatalf("tree too small for the scenario: leaves %d..%d", leafLo, leafHi)
	}
	// Count the items stored on the two damaged pages before corrupting.
	lost := 0
	buf := make([]byte, dm.PageSize())
	for _, page := range []int{flipPage, badPage} {
		if err := dm.ReadPage(page, buf); err != nil {
			t.Fatal(err)
		}
		nd, err := DecodeNode(buf, page)
		if err != nil {
			t.Fatal(err)
		}
		lost += len(nd.Rects)
	}
	fm := NewFaultManager(dm, 5).BadPage(badPage)
	if err := fm.CorruptStoredPage(flipPage); err != nil {
		t.Fatal(err)
	}
	pt, err := OpenPagedTree(fm, 200)
	if err != nil {
		t.Fatal(err)
	}

	everything := geom.UnitSquare
	// The strict path fails the whole query.
	if _, err := pt.SearchWindow(everything); err == nil {
		t.Fatal("strict search over damaged pages succeeded")
	}
	// The degraded path answers from healthy pages and reports the rest.
	got, rep := pt.SearchWindowDegraded(everything)
	if !rep.Degraded() {
		t.Fatal("degraded search over damaged pages reported clean")
	}
	if len(got) != tr.Len()-lost {
		t.Fatalf("degraded search returned %d items, want %d (%d total - %d on damaged pages)",
			len(got), tr.Len()-lost, tr.Len(), lost)
	}
	reported := map[int]bool{}
	for _, f := range rep.Faults {
		if f.Err == nil {
			t.Fatalf("fault without error: %+v", f)
		}
		reported[f.Page] = true
	}
	if !reported[flipPage] || !reported[badPage] {
		t.Fatalf("report %v missing damaged pages %d, %d", rep.Faults, flipPage, badPage)
	}
	// A query that avoids the damaged subtrees is complete and clean.
	var cleanQueries, completeQueries int
	rng := rand.New(rand.NewPCG(801, 802))
	for i := 0; i < 80; i++ {
		q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 0.03, 0.03)
		got, rep := pt.SearchWindowDegraded(q)
		want := tr.SearchWindow(q)
		if !rep.Degraded() {
			cleanQueries++
			if !sameIDs(got, want) {
				t.Fatalf("clean degraded query diverged from in-memory tree")
			}
		}
		if len(got) <= len(want) {
			completeQueries++
		} else {
			t.Fatalf("degraded query returned more items than the truth")
		}
	}
	if cleanQueries == 0 {
		t.Error("every small query touched the two damaged pages — scenario too coarse")
	}
	_ = completeQueries
}

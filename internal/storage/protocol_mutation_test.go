package storage

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"rtreebuf/internal/analysis"
)

// This file is the dynamic counterpart of durcheck: each mutation below
// reorders the §7e commit protocol exactly the way one of the durcheck
// fixture violations does, and the crash sweep shows the reordering is
// not a style nit — there is a concrete crash point (and page-cache
// flush pattern) where the mutant either destroys committed data or
// persists a hybrid state, while the faithful sequence survives every
// cell. durcheck flags statically what this matrix catches dynamically.
//
// The sweep crashes after every protocol step. Because the interesting
// orderings are about *durability*, the page device is a volatile write
// cache over durable media: at a crash, an arbitrary subset of unsynced
// writes may or may not have reached the platter (that is what an OS
// page cache does), so every subset is enumerated. The WAL device stays
// durable, modeling the log's write-through discipline.

// volatileManager is a DiskManager that buffers writes in a volatile
// overlay over a durable MemoryManager. Sync flushes the overlay;
// crash() persists a chosen subset of pending writes and drops the rest.
type volatileManager struct {
	durable *MemoryManager
	pages   map[int][]byte
	meta    []byte
	hasMeta bool
	stats   IOStats
}

func newVolatileManager(durable *MemoryManager) *volatileManager {
	return &volatileManager{durable: durable, pages: make(map[int][]byte)}
}

func (v *volatileManager) PageSize() int { return v.durable.PageSize() }

func (v *volatileManager) NumPages() int {
	n := v.durable.NumPages()
	for p := range v.pages {
		if p+1 > n {
			n = p + 1
		}
	}
	return n
}

func (v *volatileManager) ReadPage(page int, dst []byte) error {
	if d, ok := v.pages[page]; ok {
		copy(dst, d)
		v.stats.Reads++
		return nil
	}
	return v.durable.ReadPage(page, dst)
}

func (v *volatileManager) WritePage(page int, data []byte) error {
	if len(data) != v.PageSize() {
		return fmt.Errorf("storage: write of %d bytes != page size %d", len(data), v.PageSize())
	}
	v.pages[page] = append([]byte(nil), data...)
	v.stats.Writes++
	return nil
}

func (v *volatileManager) WriteMeta(meta []byte) error {
	v.meta = append([]byte(nil), meta...)
	v.hasMeta = true
	v.stats.Writes++
	return nil
}

func (v *volatileManager) ReadMeta() ([]byte, error) {
	if v.hasMeta {
		return append([]byte(nil), v.meta...), nil
	}
	return v.durable.ReadMeta()
}

func (v *volatileManager) Stats() IOStats { return v.stats }
func (v *volatileManager) ResetStats()    { v.stats = IOStats{} }
func (v *volatileManager) Close() error   { return v.durable.Close() }

// Sync implements the optional syncManager interface: everything in the
// volatile overlay reaches durable media.
func (v *volatileManager) Sync() error {
	for _, p := range v.pendingPages() {
		if err := v.durable.WritePage(p, v.pages[p]); err != nil {
			return err
		}
	}
	if v.hasMeta {
		if err := v.durable.WriteMeta(v.meta); err != nil {
			return err
		}
	}
	v.pages = make(map[int][]byte)
	v.meta, v.hasMeta = nil, false
	return nil
}

func (v *volatileManager) pendingPages() []int {
	out := make([]int, 0, len(v.pages))
	for p := range v.pages {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// pendingWrites counts the crash-subset dimension at this moment: one
// bit per unsynced page plus one for an unsynced catalog.
func (v *volatileManager) pendingWrites() int {
	n := len(v.pages)
	if v.hasMeta {
		n++
	}
	return n
}

// crash persists the subset of pending writes selected by mask (bit i =
// i-th pending page in ascending order; the highest bit is the catalog
// when one is pending) and discards the rest — the machine dies with
// the cache in an arbitrary flush state.
func (v *volatileManager) crash(mask int) error {
	for i, p := range v.pendingPages() {
		if mask&(1<<i) != 0 {
			if err := v.durable.WritePage(p, v.pages[p]); err != nil {
				return err
			}
		}
	}
	if v.hasMeta && mask&(1<<len(v.pages)) != 0 {
		if err := v.durable.WriteMeta(v.meta); err != nil {
			return err
		}
	}
	v.pages = make(map[int][]byte)
	v.meta, v.hasMeta = nil, false
	return nil
}

const protoPageSize = 512

// protoHarness is one in-flight hand-rolled commit: the batch's page
// images and catalog, the volatile page device, and the WAL.
type protoHarness struct {
	dm     *volatileManager
	wal    *WAL
	images []PageImage
	meta   []byte
	batch  uint64
}

// protoStepFns are the §7e protocol steps a sequence composes. writeback
// stands in for pool.Put+FlushDirty (the pool writes through to the
// manager); catalog for dm.WriteMeta stripped of its sync contract, so
// the sync step's placement is what the sweep measures.
var protoStepFns = map[string]func(h *protoHarness) error{
	"append": func(h *protoHarness) error {
		b, err := h.wal.AppendBatch(h.images, h.meta)
		h.batch = b
		return err
	},
	"writeback": func(h *protoHarness) error {
		for _, img := range h.images {
			if err := h.dm.WritePage(img.Page, img.Data); err != nil {
				return err
			}
		}
		return nil
	},
	"catalog": func(h *protoHarness) error { return h.dm.WriteMeta(h.meta) },
	"sync":    func(h *protoHarness) error { return syncManager(h.dm) },
	"checkpoint": func(h *protoHarness) error {
		return h.wal.Checkpoint(h.batch)
	},
}

// protoMutation is one commit-sequence ordering plus the durcheck rules
// that reject it statically (empty for the faithful order).
type protoMutation struct {
	name  string
	steps []string
	rules []string
}

func protoMutations() []protoMutation {
	return []protoMutation{
		// The §7e order commitUpdate implements.
		{name: "faithful",
			steps: []string{"append", "writeback", "catalog", "sync", "checkpoint"}},
		// Pages written back before the WAL commit: a crash leaves page
		// media the log can neither redo nor undo.
		{name: "early-writeback",
			steps: []string{"writeback", "append", "catalog", "sync", "checkpoint"},
			rules: []string{"commit-before-writeback"}},
		// Catalog published before the WAL commit: a crash can expose a
		// root the log cannot reconstruct.
		{name: "early-catalog",
			steps: []string{"catalog", "append", "writeback", "sync", "checkpoint"},
			rules: []string{"commit-before-catalog", "sync-before-publish"}},
		// Log truncated before the page writes are issued at all.
		{name: "checkpoint-before-writeback",
			steps: []string{"append", "checkpoint", "writeback", "catalog", "sync"},
			rules: []string{"checkpoint-after-sync"}},
		// Log truncated while the page writes sit unsynced in the cache.
		{name: "checkpoint-before-sync",
			steps: []string{"append", "writeback", "catalog", "checkpoint", "sync"},
			rules: []string{"checkpoint-after-sync"}},
		// No sync anywhere: a WriteMeta that never syncs.
		{name: "no-sync",
			steps: []string{"append", "writeback", "catalog", "checkpoint"},
			rules: []string{"checkpoint-after-sync"}},
	}
}

// protoSeedDurable builds the durable pre-state: four pages of known
// content and a v1 catalog.
func protoSeedDurable(t *testing.T) *MemoryManager {
	t.Helper()
	m, err := NewMemoryManager(protoPageSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, protoPageSize)
	for p := 0; p < 4; p++ {
		for i := range buf {
			buf[i] = byte(p + 1)
		}
		if err := m.WritePage(p, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WriteMeta([]byte("catalog-v1")); err != nil {
		t.Fatal(err)
	}
	return m
}

// protoBatch is the update under test: new images for pages 1 and 3 and
// a v2 catalog.
func protoBatch() ([]PageImage, []byte) {
	mk := func(fill byte) []byte {
		b := make([]byte, protoPageSize)
		for i := range b {
			b[i] = fill
		}
		return b
	}
	return []PageImage{{Page: 1, Data: mk(0xA1)}, {Page: 3, Data: mk(0xB3)}}, []byte("catalog-v2")
}

// protoState renders a durable manager's full content for exact
// pre/post comparison.
func protoState(t *testing.T, m *MemoryManager) string {
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

// runProtoCell executes one cell: run the first ci steps of the
// sequence, crash with the chosen cache-flush subset, recover from the
// surviving media, and return the recovered durable state plus whether
// the batch had reached its commit point. A second return of -1 means
// the subset index exceeded this boundary's pending-write count.
func runProtoCell(t *testing.T, mut protoMutation, ci, mask int) (got, want string, subsets int) {
	t.Helper()
	durable := protoSeedDurable(t)
	pre := protoState(t, durable)

	// The post state is the pre state with the batch applied.
	postDM := protoSeedDurable(t)
	images, meta := protoBatch()
	for _, img := range images {
		if err := postDM.WritePage(img.Page, img.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := postDM.WriteMeta(meta); err != nil {
		t.Fatal(err)
	}
	post := protoState(t, postDM)

	walDev, err := NewMemoryManager(protoPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	w, err := CreateWAL(walDev, protoPageSize)
	if err != nil {
		t.Fatal(err)
	}

	h := &protoHarness{dm: newVolatileManager(durable), wal: w, images: images, meta: meta}
	committed := false
	for _, name := range mut.steps[:ci] {
		if err := protoStepFns[name](h); err != nil {
			t.Fatalf("%s: step %s: %v", mut.name, name, err)
		}
		if name == "append" {
			committed = true
		}
	}
	subsets = 1 << h.dm.pendingWrites()
	if mask >= subsets {
		return "", "", subsets
	}
	if err := h.dm.crash(mask); err != nil {
		t.Fatal(err)
	}

	// Post-crash: reopen the log from the surviving media and recover.
	// Recovery writes straight to durable media (it syncs after replay).
	w2, err := OpenWAL(walDev, protoPageSize)
	if err != nil {
		t.Fatalf("%s: reopening WAL after crash: %v", mut.name, err)
	}
	if _, err := Recover(durable, w2); err != nil {
		t.Fatalf("%s: recovery: %v", mut.name, err)
	}

	// The oracle: before the commit point the batch must vanish; after
	// it the batch must survive. Anything else is a hybrid or lost data.
	want = pre
	if committed {
		want = post
	}
	return protoState(t, durable), want, subsets
}

// TestProtocolMutationCrashSweep sweeps every (crash boundary ×
// cache-flush subset) cell for every sequence: the faithful §7e order
// recovers to the exact oracle state in every cell, and every durcheck
// mutation has at least one cell where it does not — each static rule
// earns its keep against a concrete crash.
func TestProtocolMutationCrashSweep(t *testing.T) {
	for _, mut := range protoMutations() {
		mut := mut
		t.Run(mut.name, func(t *testing.T) {
			for _, rule := range mut.rules {
				if analysis.RuleByName(rule) == nil {
					t.Fatalf("mutation %s names unknown durcheck rule %q", mut.name, rule)
				}
			}
			var violations []string
			cells := 0
			for ci := 0; ci <= len(mut.steps); ci++ {
				for mask := 0; ; mask++ {
					got, want, subsets := runProtoCell(t, mut, ci, mask)
					if mask >= subsets {
						break
					}
					cells++
					if got != want {
						violations = append(violations,
							fmt.Sprintf("after %d steps, flush mask %b: got %s, want %s",
								ci, mask, got, want))
					}
				}
			}
			if cells < len(mut.steps)+1 {
				t.Fatalf("sweep ran only %d cells", cells)
			}
			if len(mut.rules) == 0 && len(violations) > 0 {
				t.Errorf("faithful sequence violated durability in %d cells; first: %s",
					len(violations), violations[0])
			}
			if len(mut.rules) > 0 && len(violations) == 0 {
				t.Errorf("mutation %s (flagged statically by %v) survived every crash cell; "+
					"the rule would be unearned", mut.name, mut.rules)
			}
			t.Logf("%s: %d cells, %d durability violations", mut.name, cells, len(violations))
		})
	}
}

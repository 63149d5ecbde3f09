package storage

import (
	"bytes"
	"fmt"
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
// orderings are about *durability*, the page device is a FaultManager:
// at a crash, any subset of the writes issued since its last Sync may
// or may not have reached the platter (that is what an OS page cache
// does), so every subset is enumerated. The WAL device stays durable,
// modeling the log's write-through discipline.

const protoPageSize = 512

// protoHarness is one in-flight hand-rolled commit: the batch's page
// images and catalog, the page device, and the WAL.
type protoHarness struct {
	dm     *FaultManager
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
	"sync":    func(h *protoHarness) error { return h.dm.Sync() },
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
			rules: []string{"commit-before-catalog"}},
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
	for p := 0; p < 4; p++ {
		if err := m.WritePage(p, protoFill(byte(p+1))); err != nil {
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
	return []PageImage{{Page: 1, Data: protoFill(0xA1)}, {Page: 3, Data: protoFill(0xB3)}}, []byte("catalog-v2")
}

// protoFill returns a page of b bytes.
func protoFill(b byte) []byte { return bytes.Repeat([]byte{b}, protoPageSize) }

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
// sequence, crash the page device keeping the pending writes mask
// selects, recover from the surviving media, and return the recovered
// state, the oracle's, and the number of subsets at this boundary (a
// mask at or past it runs nothing).
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

	h := &protoHarness{dm: NewFaultManager(durable, 1), wal: w, images: images, meta: meta}
	committed := false
	for _, name := range mut.steps[:ci] {
		if err := protoStepFns[name](h); err != nil {
			t.Fatalf("%s: step %s: %v", mut.name, name, err)
		}
		if name == "append" {
			committed = true
		}
	}
	subsets = 1 << h.dm.Pending()
	if mask >= subsets {
		return "", "", subsets
	}
	if err := h.dm.Crash(func(i int) bool { return mask&(1<<i) != 0 }); err != nil {
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

package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtreebuf/internal/rtree"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/update_bytes.golden from this run")

// hashingDevice feeds every write its device takes into h, tagged with
// the device and the kind of write: page writes with their page number,
// catalog writes and syncs in the order they arrive. On the page file
// (pages true) every page written must pass validatePage.
type hashingDevice struct {
	DiskManager
	t     *testing.T
	h     hash.Hash
	tag   byte
	pages bool
}

func (d *hashingDevice) note(kind byte, page int, data []byte) {
	var hdr [18]byte
	hdr[0], hdr[1] = d.tag, kind
	binary.LittleEndian.PutUint64(hdr[2:], uint64(page))
	binary.LittleEndian.PutUint64(hdr[10:], uint64(len(data)))
	d.h.Write(hdr[:])
	d.h.Write(data)
}

func (d *hashingDevice) WritePage(page int, data []byte) error {
	if d.pages {
		if err := validatePage(data, page); err != nil {
			d.t.Errorf("committed image does not validate: %v", err)
		}
	}
	d.note('P', page, data)
	return d.DiskManager.WritePage(page, data)
}

func (d *hashingDevice) WriteMeta(meta []byte) error {
	d.note('M', 0, meta)
	return d.DiskManager.WriteMeta(meta)
}

func (d *hashingDevice) Sync() error {
	d.note('S', 0, nil)
	return syncManager(d.DiskManager)
}

// TestUpdateBytesGolden pins every byte the WAL update path writes: one
// SHA-256 over each page-file write (page number and bytes), each log
// write, each sync, and the pool's hit, miss and eviction counts after
// each operation, over seeded streams of mixed inserts and deletes at
// 512-byte pages. The streams grow a small tree by root splits, then
// drain it by condenses and root shrinks, under each split algorithm,
// at fan-out 8 and at the page's full capacity of 12, where an
// overflowing node holds one entry more than the page. A change to how
// the updater stages, edits or commits pages must leave the digest as it
// is; every page it writes must pass validatePage. Rewrite the golden
// only for a change that means to move a byte (-update), and say why.
func TestUpdateBytesGolden(t *testing.T) {
	h := sha256.New()
	for _, p := range []rtree.Params{
		{MaxEntries: 8, MinEntries: 3},
		{MaxEntries: NodeCapacity(updateTestPageSize), MinEntries: 4},
	} {
		for _, alg := range diffAlgorithms {
			p.Split = alg
			grew, shrank, freed := runGoldenStream(t, h, p, 53)
			t.Logf("M=%d %v: height grew %d times, shrank %d times, %d operations freed pages",
				p.MaxEntries, alg, grew, shrank, freed)
			if grew == 0 || shrank == 0 || freed == 0 {
				t.Errorf("M=%d %v: stream grew the root %d times, shrank it %d times and freed pages in %d operations; want each at least once",
					p.MaxEntries, alg, grew, shrank, freed)
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	path := filepath.Join("testdata", "update_bytes.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("update path wrote other bytes: digest %s, golden %s", got, w)
	}
}

// runGoldenStream saves a 20-item tree under p, opens it as a WAL tree
// over hashing memory devices with a 16-page pool and a checkpoint every
// 8 batches, and runs a seeded stream into h: 1,500 operations of three
// inserts to one delete, then deletes seven times in eight until 3 items
// are left. It returns how often the tree's height grew and shrank and
// how many operations freed a page.
func runGoldenStream(t *testing.T, h hash.Hash, p rtree.Params, seed int64) (grew, shrank, freed int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	live := randomItems(rng, 20, 0)
	tree, err := rtree.New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.InsertAll(live); err != nil {
		t.Fatal(err)
	}
	mem, err := NewMemoryManager(updateTestPageSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveTree(mem, tree); err != nil {
		t.Fatal(err)
	}
	memWAL, err := NewMemoryManager(updateTestPageSize + WALFrameOverhead)
	if err != nil {
		t.Fatal(err)
	}
	dm := &hashingDevice{DiskManager: mem, t: t, h: h, tag: 'D', pages: true}
	walDev := &hashingDevice{DiskManager: memWAL, t: t, h: h, tag: 'L'}
	pt, _, err := OpenPagedTreeWAL(dm, walDev, 16)
	if err != nil {
		t.Fatal(err)
	}
	pt.SetCheckpointPolicy(CheckpointPolicy{EveryBatches: 8})

	nextID := int64(len(live))
	for i := 0; i < 1500 || len(live) > 3; i++ {
		insert := rng.Intn(4) < 3
		if i >= 1500 {
			insert = rng.Intn(8) == 0
		}
		before := pt.Meta()
		if insert || len(live) == 0 {
			it := randomItems(rng, 1, nextID)[0]
			nextID++
			if err := pt.Insert(it); err != nil {
				t.Fatal(err)
			}
			live = append(live, it)
		} else {
			j := rng.Intn(len(live))
			if found, err := pt.Delete(live[j]); err != nil || !found {
				t.Fatalf("delete of live item %d: found %v, err %v", live[j].ID, found, err)
			}
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		after := pt.Meta()
		switch {
		case len(after.Levels) > len(before.Levels):
			grew++
		case len(after.Levels) < len(before.Levels):
			shrank++
		}
		if len(after.Free) > len(before.Free) {
			freed++
		}
		hits, misses, evictions := pt.Pool().Stats()
		fmt.Fprintf(h, "pool %d %d %d\n", hits, misses, evictions)
	}
	checkFullWindow(t, pt, live, "end of stream")
	return grew, shrank, freed
}

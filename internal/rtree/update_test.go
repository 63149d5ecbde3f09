package rtree

import (
	"math/rand/v2"
	"testing"
)

// allocsOnce returns the allocations of one call of f. AllocsPerRun's
// warm-up call is skipped rather than run: an update cannot be repeated
// on the tree it changed.
func allocsOnce(f func()) int {
	warm := true
	return int(testing.AllocsPerRun(1, func() {
		if warm {
			warm = false
			return
		}
		f()
	}))
}

// TestTreeUpdateAllocations is the allocation gate on the in-memory
// tree's updates: on a warm fan-out-100 quadratic tree an Insert
// allocates the nodes it adds, two allocations each (the node and its
// entry array), and nothing else; a Delete that eliminates nothing
// allocates nothing, and neither does one whose condense eliminates a
// leaf and reinserts its entries without a split.
func TestTreeUpdateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	rng := rand.New(rand.NewPCG(3613, 3614))
	items := testItems(rng, 20000)
	tr := MustNew(Params{MaxEntries: 100})
	tr.InsertAll(items[:500]) // past the first split, which sizes the scratch

	added := map[int]int{} // nodes one insert added -> inserts
	rootSplits := 0
	for _, it := range items[500:] {
		nodes, height := tr.NodeCount(), tr.Height()
		got := allocsOnce(func() { tr.Insert(it) })
		n := tr.NodeCount() - nodes
		if got != 2*n {
			t.Fatalf("an Insert that added %d nodes made %d allocations, want %d", n, got, 2*n)
		}
		added[n]++
		if tr.Height() > height {
			rootSplits++
		}
	}
	if added[0] == 0 || added[1] == 0 || added[2] == 0 || rootSplits == 0 {
		t.Fatalf("inserts by nodes added %v, %d root splits: the stream misses a case", added, rootSplits)
	}

	// Empty leaves one by one: the deletes that leave a leaf at least
	// MinEntries eliminate nothing, the next one eliminates the leaf.
	// The first elimination sizes condense's orphan list.
	minFill := tr.Params().MinEntries
	plain, eliminating := 0, 0
	for round := 0; eliminating < 10; round++ {
		if round == 100 {
			t.Fatalf("%d eliminations without a split in %d rounds", eliminating, round)
		}
		leaf, _ := tr.findLeaf(tr.root, items[rng.IntN(len(items))])
		if leaf == nil {
			continue // already deleted
		}
		for {
			fill, parentFill := len(leaf.entries), len(leaf.parent.entries)
			e := leaf.entries[0]
			nodes := tr.NodeCount()
			got := allocsOnce(func() { tr.Delete(Item{Rect: e.rect, ID: e.id}) })
			if fill > minFill {
				plain++
				if got != 0 {
					t.Fatalf("a Delete that eliminates nothing made %d allocations", got)
				}
				continue
			}
			// The leaf went; if its parent stays and the tree lost just
			// that node, its entries went back without a split.
			if parentFill > minFill && tr.NodeCount() == nodes-1 {
				if eliminating > 0 && got != 0 {
					t.Fatalf("a Delete that eliminated a leaf and split nothing made %d allocations", got)
				}
				eliminating++
			}
			break
		}
	}
	if plain == 0 {
		t.Fatal("no Delete that eliminates nothing was measured")
	}
}

// TestVacatedSlotsAreCleared runs a seeded insert/delete stream and
// requires every node's entries past its length to be zero: a slot a
// removal or a split vacates must not keep a stale copy of an entry,
// whose child pointer would keep an eliminated node reachable.
func TestVacatedSlotsAreCleared(t *testing.T) {
	for _, tc := range []struct{ fanout, items, every int }{
		{4, 1500, 1},
		{100, 12000, 97},
	} {
		rng := rand.New(rand.NewPCG(uint64(tc.fanout), 3615))
		items := testItems(rng, tc.items)
		tr := MustNew(Params{MaxEntries: tc.fanout})
		var live []Item
		step := 0
		check := func() {
			step++
			if step%tc.every != 0 {
				return
			}
			tr.walk(func(n *node) {
				for k, e := range n.entries[len(n.entries):cap(n.entries)] {
					if e != (entry{}) {
						t.Fatalf("fan-out %d, step %d: node at height %d holds %d entries and a stale one in slot %d",
							tc.fanout, step, n.height, len(n.entries), len(n.entries)+k)
					}
				}
			})
		}
		del := func() {
			at := rng.IntN(len(live))
			if !tr.Delete(live[at]) {
				t.Fatalf("fan-out %d: Delete missed a live item", tc.fanout)
			}
			live[at] = live[len(live)-1]
			live = live[:len(live)-1]
			check()
		}
		// Grow the tree with a delete after every third insert, then
		// delete it down to nothing: every level condenses and the root
		// shrinks.
		for i, it := range items {
			tr.Insert(it)
			live = append(live, it)
			check()
			if i%3 == 2 {
				del()
			}
		}
		for len(live) > 0 {
			del()
		}
	}
}

package rtree

import (
	"math/rand/v2"
	"testing"

	"rtreebuf/internal/geom"
)

func TestDeleteBasic(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	items := []Item{
		{Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, ID: 1},
		{Rect: geom.Rect{MinX: 0.3, MinY: 0.3, MaxX: 0.4, MaxY: 0.4}, ID: 2},
		{Rect: geom.Rect{MinX: 0.5, MinY: 0.5, MaxX: 0.6, MaxY: 0.6}, ID: 3},
	}
	tr.InsertAll(items)
	if !tr.Delete(items[1]) {
		t.Fatal("Delete of present item returned false")
	}
	if tr.Len() != 2 {
		t.Errorf("Len after delete = %d", tr.Len())
	}
	if got := tr.SearchPoint(geom.Point{X: 0.35, Y: 0.35}); len(got) != 0 {
		t.Errorf("deleted item still found: %v", got)
	}
	if tr.Delete(items[1]) {
		t.Error("Delete of absent item returned true")
	}
	// Wrong ID with right rectangle must not match.
	if tr.Delete(Item{Rect: items[0].Rect, ID: 999}) {
		t.Error("Delete matched wrong ID")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAll(t *testing.T) {
	rng := rand.New(rand.NewPCG(60, 61))
	tr := MustNew(Params{MaxEntries: 5})
	items := testItems(rng, 400)
	tr.InsertAll(items)
	// Delete in random order.
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	for i, it := range items {
		if !tr.Delete(it) {
			t.Fatalf("item %d not found for deletion", i)
		}
		if i%53 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d deletions: %v", i+1, err)
			}
		}
	}
	if tr.Len() != 0 {
		t.Errorf("Len after deleting all = %d", tr.Len())
	}
	if tr.Height() != 1 {
		t.Errorf("height after deleting all = %d, want 1 (root shrinks back)", tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteCondensesRoot(t *testing.T) {
	rng := rand.New(rand.NewPCG(70, 71))
	tr := MustNew(Params{MaxEntries: 4, MinEntries: 2})
	items := testItems(rng, 200)
	tr.InsertAll(items)
	h := tr.Height()
	if h < 4 {
		t.Fatalf("setup: height %d too small to observe shrinking", h)
	}
	for _, it := range items[:190] {
		if !tr.Delete(it) {
			t.Fatal("delete failed")
		}
	}
	if tr.Height() >= h {
		t.Errorf("height did not shrink: %d -> %d", h, tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := idsOf(tr.Items()); !equalIDs(got, idsOf(items[190:])) {
		t.Error("survivors mismatch")
	}
}

// Mixed random inserts and deletes tracked against a reference map — the
// workhorse property test for update correctness.
func TestRandomInsertDeleteMix(t *testing.T) {
	rng := rand.New(rand.NewPCG(80, 81))
	for _, cap := range []int{3, 6, 12} {
		tr := MustNew(Params{MaxEntries: cap})
		live := map[int64]Item{}
		nextID := int64(0)
		for step := 0; step < 3000; step++ {
			if len(live) == 0 || rng.Float64() < 0.6 {
				it := testItems(rng, 1)[0]
				it.ID = nextID
				nextID++
				tr.Insert(it)
				live[it.ID] = it
			} else {
				// Delete a random live item.
				var victim Item
				k := rng.IntN(len(live))
				for _, it := range live {
					if k == 0 {
						victim = it
						break
					}
					k--
				}
				if !tr.Delete(victim) {
					t.Fatalf("cap %d step %d: live item %d not deletable", cap, step, victim.ID)
				}
				delete(live, victim.ID)
			}
			if step%271 == 0 {
				if err := tr.CheckInvariants(); err != nil {
					t.Fatalf("cap %d step %d: %v", cap, step, err)
				}
				if tr.Len() != len(live) {
					t.Fatalf("cap %d step %d: Len %d != live %d", cap, step, tr.Len(), len(live))
				}
			}
		}
		// Final check: search agrees with the reference.
		var ref []Item
		for _, it := range live {
			ref = append(ref, it)
		}
		for i := 0; i < 50; i++ {
			q := geom.RectAround(geom.Point{X: rng.Float64(), Y: rng.Float64()}, 0.25, 0.25)
			if got, want := idsOf(tr.SearchWindow(q)), bruteSearch(ref, q); !equalIDs(got, want) {
				t.Fatalf("cap %d: final search mismatch (%d vs %d)", cap, len(got), len(want))
			}
		}
	}
}

func TestDeleteFromEmptyTree(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	if tr.Delete(Item{Rect: geom.UnitSquare, ID: 1}) {
		t.Error("Delete on empty tree returned true")
	}
}

func TestDeleteInvalidatesPages(t *testing.T) {
	tr := MustNew(Params{MaxEntries: 4})
	it := Item{Rect: geom.Rect{MinX: 0.1, MinY: 0.1, MaxX: 0.2, MaxY: 0.2}, ID: 1}
	tr.Insert(it)
	tr.AssignPageIDs()
	tr.Delete(it)
	defer func() {
		if recover() == nil {
			t.Fatal("TraceWindow after Delete did not panic on stale pages")
		}
	}()
	tr.TraceWindow(geom.UnitSquare, func(NodeVisit) {})
}

// BenchmarkDelete is delete churn on a fan-out-100 tree built by Guttman
// inserts, like the delete step of the benchmark's paper_model phase A.
// A fifth of the items are out of the tree at any time: each op deletes
// a uniformly chosen live item and inserts back the one deleted a fifth
// of the items earlier, so the tree keeps its size and the op counts
// what condense's eliminations and reinsertions cost.
func BenchmarkDelete(b *testing.B) {
	rng := rand.New(rand.NewPCG(817, 818))
	live := testItems(rng, 50000)
	tr := MustNew(Params{MaxEntries: 100})
	tr.InsertAll(live)
	out := make([]Item, len(live)/5)
	for k := range out {
		at := rng.IntN(len(live))
		out[k] = live[at]
		tr.Delete(out[k])
		live[at] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at, k := rng.IntN(len(live)), i%len(out)
		if !tr.Delete(live[at]) {
			b.Fatal("Delete missed a live item")
		}
		tr.Insert(out[k])
		live[at], out[k] = out[k], live[at]
	}
}

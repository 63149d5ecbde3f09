package core

import (
	"fmt"
	"math"
	"testing"
)

// sumf is the per-level split folded back into a total.
func sumf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// splits gathers every model's (total, per-level split) pair next to the
// total-only view of the same model.
type splitCase struct {
	name        string
	alone, with float64
	split       []float64
}

func splits(t *testing.T, p *Predictor, b int) []splitCase {
	t.Helper()
	var cases []splitCase
	add := func(name string, alone, with float64, split []float64) {
		cases = append(cases, splitCase{fmt.Sprintf("B=%d %s", b, name), alone, with, split})
	}
	ept, eptSplit := p.NodesVisitedPerLevel()
	add("EPT", p.NodesVisited(), ept, eptSplit)
	lru, lruSplit := p.DiskAccessesPerLevel(b)
	add("LRU", p.DiskAccesses(b), lru, lruSplit)
	twoQ, twoQSplit := p.DiskAccesses2QPerLevel(b)
	add("2Q", p.DiskAccesses2Q(b), twoQ, twoQSplit)
	for _, shards := range []int{1, 2, 4, 7} {
		sh, shSplit := p.DiskAccessesShardedPerLevel(b, shards)
		add(fmt.Sprintf("sharded(%d)", shards), p.DiskAccessesSharded(b, shards), sh, shSplit)
	}
	for pin := 0; pin <= p.MaxPinnableLevels(b); pin++ {
		alone, err := p.DiskAccessesPinned(b, pin)
		if err != nil {
			t.Fatalf("B=%d pin=%d: %v", b, pin, err)
		}
		with, split, err := p.DiskAccessesPinnedPerLevel(b, pin)
		if err != nil {
			t.Fatalf("B=%d pin=%d: %v", b, pin, err)
		}
		add(fmt.Sprintf("pinned(%d)", pin), alone, with, split)
	}
	return cases
}

// TestPerLevelSplitsSumToTotals is the defining property of every
// per-level decomposition. Each model is one pass that accumulates the
// total in flat node order and the split in the same loop, so the total
// is the same float64 whether or not a split was asked for; folding the
// split back up adds the same terms in a different order, so that sum
// agrees with the total to float tolerance, not modeling tolerance.
func TestPerLevelSplitsSumToTotals(t *testing.T) {
	p := pointPredictor(t)
	for _, b := range []int{0, 1, 5, 17, 40, 100, 280} {
		for _, c := range splits(t, p, b) {
			if c.with != c.alone {
				t.Errorf("%s: total %.17g with the split, %.17g without", c.name, c.with, c.alone)
			}
			if got := sumf(c.split); !almost(got, c.with) {
				t.Errorf("%s: split sums to %g, want %g", c.name, got, c.with)
			}
		}
	}
	// The unpinned LRU total is the reference's, bit for bit.
	for _, b := range []int{0, 1, 5, 17, 40, 100, 280} {
		if got, want := p.DiskAccesses(b), DiskAccesses(p.flat, b); got != want {
			t.Errorf("B=%d: Predictor EDT %.17g, reference %.17g", b, got, want)
		}
	}
}

// level returns only the split of a (total, split) pair.
func level(_ float64, split []float64) []float64 { return split }

func TestPerLevelShapes(t *testing.T) {
	p := pointPredictor(t)
	visited := level(p.NodesVisitedPerLevel())
	for _, split := range [][]float64{
		visited,
		level(p.DiskAccessesPerLevel(40)),
		level(p.DiskAccesses2QPerLevel(40)),
		level(p.DiskAccessesShardedPerLevel(40, 4)),
	} {
		if len(split) != p.LevelCount() {
			t.Fatalf("split has %d entries, want %d levels", len(split), p.LevelCount())
		}
		for lvl, v := range split {
			if v < 0 || math.IsNaN(v) {
				t.Errorf("level %d: negative or NaN contribution %g", lvl, v)
			}
			// A level cannot miss more often than it is visited.
			if v > visited[lvl]+1e-12 {
				t.Errorf("level %d: %g disk accesses > %g node accesses", lvl, v, visited[lvl])
			}
		}
	}
}

// TestPerLevelPinnedZeroesPinnedLevels: pinned levels never fault, so
// their split entries are exactly zero while deeper levels still do.
func TestPerLevelPinnedZeroesPinnedLevels(t *testing.T) {
	p := pointPredictor(t)
	_, split, err := p.DiskAccessesPinnedPerLevel(40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if split[0] != 0 || split[1] != 0 {
		t.Errorf("pinned levels contribute %g, %g; want 0, 0", split[0], split[1])
	}
	if split[2] <= 0 {
		t.Errorf("unpinned leaf level contributes %g, want > 0", split[2])
	}
	if _, _, err := p.DiskAccessesPinnedPerLevel(2, 2); err == nil {
		t.Error("infeasible pinning accepted")
	}
	if _, _, err := p.DiskAccessesPinnedPerLevel(40, -1); err == nil {
		t.Error("negative pinLevels accepted")
	}
}

// TestPerLevelBigBufferAllZero: when the buffer holds every reachable
// node the total is zero and so must every level's contribution be.
func TestPerLevelBigBufferAllZero(t *testing.T) {
	p := pointPredictor(t)
	big := p.NodeCount() + 10
	for name, split := range map[string][]float64{
		"lru":     level(p.DiskAccessesPerLevel(big)),
		"2q":      level(p.DiskAccesses2QPerLevel(big)),
		"sharded": level(p.DiskAccessesShardedPerLevel(big, 4)),
	} {
		for lvl, v := range split {
			if v != 0 {
				t.Errorf("%s level %d = %g with an all-holding buffer, want 0", name, lvl, v)
			}
		}
	}
}

// TestPerLevelRootAbsorbedFirst: the root is the hottest page, so with a
// modest buffer its level contributes (numerically) nothing while the
// leaf level dominates — the shape the monitor relies on when it
// attributes residuals per level.
func TestPerLevelRootAbsorbedFirst(t *testing.T) {
	p := pointPredictor(t)
	_, split := p.DiskAccessesPerLevel(40)
	if split[0] > 1e-9 {
		t.Errorf("root level EDT = %g, want ~0 (root always resident)", split[0])
	}
	if split[2] < split[1] {
		t.Errorf("leaf level %g < mid level %g, want leaves to dominate", split[2], split[1])
	}
}

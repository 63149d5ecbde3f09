package main

import (
	"fmt"
	"strings"
	"testing"

	"rtreebuf/internal/core"
	"rtreebuf/internal/datagen"
	"rtreebuf/internal/pack"
	"rtreebuf/internal/rtree"
)

// TestWarmupComparisonModelsThePinnedBuffer: with -pin k the simulator
// trace runs against a buffer whose top k levels are pinned, so the
// "analytic N*" printed beside it must be the fill point of that buffer —
// the levels below the pins filling the B - P pages left, the N*
// DiskAccessesPinned evaluates Equation 6 at — not the unpinned model's.
// The reference search over the unpinned levels alone is the oracle.
func TestWarmupComparisonModelsThePinnedBuffer(t *testing.T) {
	tree, err := pack.Load(pack.HilbertSort, rtree.Params{MaxEntries: 10},
		datagen.Items(datagen.SyntheticRegions(4000, 88)))
	if err != nil {
		t.Fatal(err)
	}
	levels := tree.Levels()
	qm, err := core.NewUniformQueries(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	pred := core.NewPredictor(levels, qm)
	probs := core.AccessProbs(levels, qm)
	const buffer = 60

	printed := make(map[int]string)
	for pin := 0; pin <= 3; pin++ {
		var rest []float64
		for _, lvl := range probs[pin:] {
			rest = append(rest, lvl...)
		}
		want := core.WarmupQueries(rest, buffer-pred.PinnedPages(pin))
		if got, err := pred.WarmupQueriesPinned(buffer, pin); err != nil || got != want {
			t.Fatalf("pin %d: WarmupQueriesPinned = %g, %v; reference %g", pin, got, err, want)
		}

		out := warmupComparison(levels, pred, buffer, pin, 0, 0, 42, 0)
		printed[pin] = fmt.Sprintf("analytic N* = %.0f queries,", want)
		if !strings.Contains(out, printed[pin]) {
			t.Errorf("pin %d: output lacks %q:\n%s", pin, printed[pin], out)
		}
	}
	if printed[3] == printed[0] {
		t.Fatalf("fixture too weak: pinning 3 levels leaves the fill point at %s", printed[0])
	}
}

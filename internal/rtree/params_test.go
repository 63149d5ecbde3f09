package rtree

import (
	"math/rand/v2"
	"testing"
)

// newTestRNG returns a deterministic generator for gap tests.
func newTestRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0xabc))
}

// DefaultParams returns parameters with node capacity max and conventional
// defaults for everything else.
func DefaultParams(max int) Params {
	return Params{MaxEntries: max}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams(50)
	if p.MaxEntries != 50 || p.MinEntries != 0 || p.Split != SplitQuadratic {
		t.Errorf("DefaultParams = %+v", p)
	}
	tr, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Params().MinEntries; got != 20 {
		t.Errorf("normalized MinEntries = %d, want 20 (40%%)", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad params did not panic")
		}
	}()
	MustNew(Params{MaxEntries: 0})
}

func TestParamsPreservedAcrossPack(t *testing.T) {
	rng := newTestRNG(42)
	items := testItems(rng, 100)
	tr, err := Pack(Params{MaxEntries: 10, MinEntries: 3, Split: SplitLinear}, items, xOrdering)
	if err != nil {
		t.Fatal(err)
	}
	p := tr.Params()
	if p.MaxEntries != 10 || p.MinEntries != 3 || p.Split != SplitLinear {
		t.Errorf("packed params = %+v", p)
	}
	// Updates after packing honour the preserved split heuristic.
	tr.Insert(items[0])
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

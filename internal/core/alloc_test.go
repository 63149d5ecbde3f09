package core

import (
	"testing"

	"rtreebuf/internal/geom"
)

var sink float64

// TestModelAllocations is the allocation gate on the model's per-node
// passes: on a built Predictor, EDT at one buffer size (the N* search
// through sweeper.distinctAtLeast, then Predictor.sum over sweeper.term)
// and EPT (sum over the probabilities) allocate nothing, nor does any
// query model's AccessProb. A sweep allocates its result and the order
// it visits the sizes in, and AccessProbs its result, one row per level.
func TestModelAllocations(t *testing.T) {
	levels := syntheticLevels()
	centers := []geom.Point{{X: 0.2, Y: 0.3}, {X: 0.7, Y: 0.6}, {X: 0.5, Y: 0.5}}
	uniform, err := NewUniformQueries(0.05, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	dataDriven, err := NewDataDrivenQueries(0.05, 0.05, centers)
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := NewWeightedQueries(0.05, 0.05, centers, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPredictor(levels, uniform)
	var qm QueryModel = uniform // boxed once, not per call
	mbr := levels[1][5]
	sizes := []int{200, 20, 100, 50}
	for _, tc := range []struct {
		name string
		want float64
		run  func() float64
	}{
		{"DiskAccesses + NodesVisited", 0, func() float64 { return p.DiskAccesses(50) + p.NodesVisited() }},
		{"UniformQueries.AccessProb", 0, func() float64 { return uniform.AccessProb(mbr) }},
		{"KamelFaloutsosQueries.AccessProb", 0, func() float64 { return KamelFaloutsosQueries{QX: 0.05, QY: 0.05}.AccessProb(mbr) }},
		{"DataDrivenQueries.AccessProb", 0, func() float64 { return dataDriven.AccessProb(mbr) }},
		{"WeightedQueries.AccessProb", 0, func() float64 { return weighted.AccessProb(mbr) }},
		{"DiskAccessesSweep", 2, func() float64 { return p.DiskAccessesSweep(sizes)[0] }},
		{"AccessProbs", float64(1 + len(levels)), func() float64 { return AccessProbs(levels, qm)[1][5] }},
	} {
		if v := tc.run(); v <= 0 {
			t.Fatalf("%s = %g: the case does not test what it says", tc.name, v)
		}
		if got := testing.AllocsPerRun(100, func() { sink += tc.run() }); got != tc.want {
			t.Errorf("%s: %v allocations per call, want %v", tc.name, got, tc.want)
		}
	}
}
